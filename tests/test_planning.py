import dataclasses
import math

import numpy as np
import pytest

from actinf.dists import delta, normalize, uniform
from actinf.errors import NoCandidateError, ShapeError
from actinf.model import (
    GenerativeModel,
    ObservationModel,
    Policy,
    PreferenceModel,
    StackedOutcomes,
    TransitionModel,
)
from actinf.planning import (
    TIE_ATOL,
    argmin,
    expected_free_energy,
    information_gain,
    pragmatic_value,
    rollout,
)

from .oracles import efe_by_enumeration, random_model, random_policy


def two_state_model(a_rows, prefs=None, b_tensor=None):
    """Minimal one-channel model for targeted planning checks."""
    states = ("s0", "s1")
    actions = ("go", "stay")
    outcomes = tuple(f"o{i}" for i in range(len(a_rows[0])))
    channels = {"obs": outcomes}
    a = np.asarray(a_rows, dtype=float)
    if b_tensor is None:
        b_tensor = np.stack([np.eye(2), np.eye(2)])
    if prefs is None:
        prefs = {"obs": uniform(outcomes)}
    return GenerativeModel(
        states=states,
        actions=actions,
        channels=channels,
        a=ObservationModel(states=states, channels=channels, matrices={"obs": a}),
        b=TransitionModel(states=states, actions=actions, tensor=np.asarray(b_tensor, float)),
        c=PreferenceModel(entries=(), channel_priors=prefs),
        d=uniform(states),
    )


def test_rollout_identity_dynamics_keeps_belief():
    model = two_state_model([[0.9, 0.1], [0.1, 0.9]])
    belief = normalize([0.3, 0.7], model.states)
    plan = rollout(model, belief, (Policy("p", ("go", "stay", "go")),))
    assert len(plan.states) == 3
    for s in plan.states:
        assert np.allclose(s, belief.probs, atol=1e-12)


def test_rollout_deterministic_step():
    b = np.zeros((2, 2, 2))
    b[0] = [[0.0, 1.0], [0.0, 1.0]]  # "go" drives everything to s1
    b[1] = np.eye(2)
    model = two_state_model([[0.9, 0.1], [0.1, 0.9]], b_tensor=b)
    belief = delta(model.states, "s0")
    plan = rollout(model, belief, (Policy("p", ("go",)),))
    assert np.allclose(plan.states[0], [0.0, 1.0], atol=1e-12)
    # observation distribution is the pushed state through A
    assert plan.outcomes[0] == pytest.approx([0.1, 0.9])


def test_rollout_rejects_foreign_belief():
    model = two_state_model([[0.9, 0.1], [0.1, 0.9]])
    with pytest.raises(ShapeError):
        rollout(model, uniform(("x", "y")), (Policy("p", ("go",)),))


def test_information_gain_symmetric_channel_value():
    # Uniform two-state prior, 90/10 likelihoods: one step of looking
    # is worth 0.3681 nats.
    model = two_state_model([[0.9, 0.1], [0.1, 0.9]])
    plan = rollout(model, uniform(model.states), (Policy("p", ("stay",)),))
    assert information_gain(model, plan)[0] == pytest.approx(0.36806420716849714, abs=1e-9)


def test_information_gain_zero_for_delta_states():
    model = two_state_model([[0.9, 0.1], [0.1, 0.9]])
    plan = rollout(model, delta(model.states, "s1"), (Policy("p", ("go", "go")),))
    assert information_gain(model, plan)[0] == pytest.approx(0.0, abs=1e-12)


def test_information_gain_zero_for_uninformative_channel():
    model = two_state_model([[0.5, 0.5], [0.5, 0.5]])
    plan = rollout(model, uniform(model.states), (Policy("p", ("go",)),))
    assert information_gain(model, plan)[0] == pytest.approx(0.0, abs=1e-12)


def test_information_gain_nonnegative_randomized():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        model, belief = random_model(rng)
        plan = rollout(model, belief, tuple(random_policy(rng, model) for _ in range(3)))
        assert (information_gain(model, plan) >= 0.0).all()


def test_pragmatic_value_uniform_preferences():
    model = two_state_model([[0.9, 0.1], [0.1, 0.9]])
    plan = rollout(model, uniform(model.states), (Policy("p", ("go", "stay")),))
    assert pragmatic_value(model, plan)[0] == pytest.approx(2 * math.log(0.5), abs=1e-12)


# every two-step action sequence of two_state_model, declared in this order
TWO_STEP = tuple(
    Policy(f"{a}-{b}", (a, b)) for a in ("go", "stay") for b in ("go", "stay")
)


def best_of(table) -> int:
    """The argmin of an EFE table with nothing vetoed."""
    return argmin([row.total for row in table], [True] * len(table))


def test_efe_delta_belief_uniform_preferences_all_tie():
    model = two_state_model([[0.9, 0.1], [0.1, 0.9]])
    belief = delta(model.states, "s0")
    table = expected_free_energy(model, rollout(model, belief, TWO_STEP))
    assert [bd.epistemic for bd in table] == pytest.approx([0.0] * 4, abs=1e-12)
    assert [bd.total for bd in table] == pytest.approx([-2 * math.log(0.5)] * 4, abs=1e-12)
    assert best_of(table) == 0  # an exact tie goes to the first declared


def test_argmin_breaks_ties_by_listing_order():
    model = two_state_model([[0.9, 0.1], [0.1, 0.9]])
    belief = uniform(model.states)
    candidates = (Policy("first", ("go",)), Policy("second", ("stay",)))
    table = expected_free_energy(model, rollout(model, belief, candidates))
    # identity dynamics either way: exact tie, first listed wins
    assert table[0].total == pytest.approx(table[1].total, abs=1e-12)
    assert best_of(table) == 0
    # within TIE_ATOL is a tie; beyond it the lower total wins; masked never
    assert argmin([1.0, 1.0 - TIE_ATOL / 2], [True, True]) == 0
    assert argmin([1.0, 1.0 - 2 * TIE_ATOL], [True, True]) == 1
    assert argmin([0.0, 1.0, 2.0], [False, True, True]) == 1
    assert argmin([0.0, 1.0], [False, False]) is None


def test_argmin_matches_table():
    rng = np.random.default_rng(29)
    for _ in range(300):
        model, belief = random_model(rng)
        candidates = tuple(random_policy(rng, model) for _ in range(3))
        table = expected_free_energy(model, rollout(model, belief, candidates))
        best = min(t.total for t in table)
        assert table[best_of(table)].total <= best + 1e-9


def test_rollout_rejects_an_empty_candidate_set():
    model = two_state_model([[0.9, 0.1], [0.1, 0.9]])
    with pytest.raises(NoCandidateError):
        rollout(model, uniform(model.states), ())


def test_preference_shift_invariance():
    # Adding a constant to every log-preference renormalizes away and
    # cannot change which policy wins.
    rng = np.random.default_rng(41)
    for _ in range(1000):
        model, belief = random_model(rng)
        candidates = tuple(random_policy(rng, model) for _ in range(3))
        shift = float(rng.uniform(-3, 3))
        shifted_priors = {
            ch: normalize(np.exp(np.log(p.probs) + shift), p.labels)
            for ch, p in model.c.channel_priors.items()
        }
        shifted = GenerativeModel(
            states=model.states,
            actions=model.actions,
            channels=model.channels,
            a=model.a,
            b=model.b,
            c=PreferenceModel(entries=(), channel_priors=shifted_priors),
            d=model.d,
        )
        base = expected_free_energy(model, rollout(model, belief, candidates))
        moved = expected_free_energy(shifted, rollout(shifted, belief, candidates))
        assert best_of(base) == best_of(moved)


def test_uniform_preferences_reduce_selection_to_information_gain():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        model, belief = random_model(rng)
        uniform_priors = {ch: uniform(out) for ch, out in model.channels.items()}
        flat = GenerativeModel(
            states=model.states,
            actions=model.actions,
            channels=model.channels,
            a=model.a,
            b=model.b,
            c=PreferenceModel(entries=(), channel_priors=uniform_priors),
            d=model.d,
        )
        candidates = tuple(random_policy(rng, model) for _ in range(3))
        table = expected_free_energy(flat, rollout(flat, belief, candidates))
        # same-horizon candidates: pragmatic value is constant, so the
        # winner must carry the (near-)maximal information gain
        horizons = {len(p.actions) for p in candidates}
        if len(horizons) == 1:
            best_ig = max(t.epistemic for t in table)
            assert table[best_of(table)].epistemic >= best_ig - 1e-9


def test_rollout_keeps_the_declared_order_and_horizons():
    model = two_state_model([[0.9, 0.1], [0.1, 0.9]])
    declared = (Policy("long", ("stay", "go", "go")), *reversed(TWO_STEP), Policy("one", ("go",)))
    plan = rollout(model, uniform(model.states), declared)
    assert plan.policies == declared
    assert plan.starts.tolist() == [0, 3, 5, 7, 9, 11]
    assert len(plan.states) == 12
    table = expected_free_energy(model, plan)
    assert [row.policy for row in table] == [p.label for p in declared]


def test_efe_matches_path_enumeration_oracle():
    rng = np.random.default_rng(61)
    for _ in range(200):
        model, belief = random_model(rng)
        policy = random_policy(rng, model)
        (bd,) = expected_free_energy(model, rollout(model, belief, (policy,)))
        ig, pa, total = efe_by_enumeration(model, belief, policy)
        assert bd.epistemic == pytest.approx(ig, abs=1e-6)
        assert bd.pragmatic == pytest.approx(pa, abs=1e-6)
        assert bd.total == pytest.approx(total, abs=1e-6)


def test_stacked_arrays_are_read_only_and_belong_to_their_model():
    model = two_state_model([[0.9, 0.1], [0.1, 0.9]])
    belief = uniform(model.states)
    policies = (Policy("p", ("stay",)),)
    (before,) = expected_free_energy(model, rollout(model, belief, policies))
    for name in StackedOutcomes._fields:
        assert getattr(model.stacked, name).flags.writeable is False, name

    # a refined copy, as Agent.propagate_refinement returns, scores with its own A
    sharp = np.eye(2)
    refined = dataclasses.replace(
        model, a=dataclasses.replace(model.a, matrices={"obs": sharp})
    )
    assert np.array_equal(refined.stacked.a, sharp)
    (after,) = expected_free_energy(refined, rollout(refined, belief, policies))
    assert after.epistemic == pytest.approx(math.log(2), abs=1e-12)
    assert before.epistemic == pytest.approx(0.36806420716849714, abs=1e-9)
    assert np.array_equal(model.stacked.a, [[0.9, 0.1], [0.1, 0.9]])
