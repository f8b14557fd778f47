"""Independent reference computations used to pin down engine outputs.

The expected-free-energy oracle enumerates every hidden-state path
explicitly and evaluates mutual information from the joint table, so it
shares no code path with the vectorized engine implementation.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from actinf.dists import CategoricalDistribution, normalize
from actinf.model import (
    GenerativeModel,
    ObservationModel,
    Policy,
    PreferenceModel,
    TransitionModel,
)

FLOOR = 1e-12


def efe_by_enumeration(
    model: GenerativeModel, belief: CategoricalDistribution, policy: Policy
):
    """(epistemic, pragmatic, total) via exhaustive path enumeration."""
    n = len(model.states)
    horizon = len(policy.actions)
    b_mats = [model.b.matrix(a) for a in policy.actions]

    marginals = [np.zeros(n) for _ in range(horizon)]
    for path in itertools.product(range(n), repeat=horizon + 1):
        p = belief.probs[path[0]]
        for k in range(horizon):
            p *= b_mats[k][path[k], path[k + 1]]
        for k in range(horizon):
            marginals[k][path[k + 1]] += p

    epistemic = 0.0
    pragmatic = 0.0
    for k in range(horizon):
        marg = marginals[k]
        for channel, outcomes in model.channels.items():
            a = model.a.matrices[channel]
            joint = np.zeros((n, len(outcomes)))
            for s in range(n):
                for o in range(len(outcomes)):
                    joint[s, o] = marg[s] * a[s, o]
            q_o = joint.sum(axis=0)
            for s in range(n):
                for o in range(len(outcomes)):
                    if joint[s, o] > 0.0:
                        epistemic += joint[s, o] * math.log(
                            joint[s, o] / max(marg[s] * q_o[o], FLOOR)
                        )
            log_c = np.log(np.clip(model.c.channel_priors[channel].probs, FLOOR, 1.0))
            pragmatic += float(np.dot(q_o, log_c))
    return epistemic, pragmatic, -epistemic - pragmatic


def random_model(rng: np.random.Generator) -> tuple[GenerativeModel, CategoricalDistribution]:
    """A small random generative model plus a random starting belief."""
    n_states = int(rng.integers(2, 5))
    n_actions = int(rng.integers(1, 4))
    n_channels = int(rng.integers(1, 3))
    states = tuple(f"s{i}" for i in range(n_states))
    actions = tuple(f"a{i}" for i in range(n_actions))

    channels: dict[str, tuple[str, ...]] = {}
    matrices: dict[str, np.ndarray] = {}
    priors: dict[str, CategoricalDistribution] = {}
    for c in range(n_channels):
        n_out = int(rng.integers(2, 4))
        outcomes = tuple(f"c{c}o{j}" for j in range(n_out))
        channels[f"ch{c}"] = outcomes
        rows = rng.random((n_states, n_out)) + 1e-6
        matrices[f"ch{c}"] = rows / rows.sum(axis=1, keepdims=True)
        priors[f"ch{c}"] = normalize(rng.random(n_out) + 1e-6, outcomes)

    tensor = rng.random((n_actions, n_states, n_states)) + 1e-6
    tensor /= tensor.sum(axis=2, keepdims=True)

    d = normalize(rng.random(n_states) + 1e-6, states)
    model = GenerativeModel(
        states=states,
        actions=actions,
        channels=channels,
        a=ObservationModel(states=states, channels=channels, matrices=matrices),
        b=TransitionModel(states=states, actions=actions, tensor=tensor),
        c=PreferenceModel(entries=(), channel_priors=priors),
        d=d,
    )
    belief = normalize(rng.random(n_states) + 1e-6, states)
    return model, belief


def random_policy(rng: np.random.Generator, model: GenerativeModel) -> Policy:
    horizon = int(rng.integers(1, 3))
    actions = tuple(str(rng.choice(model.actions)) for _ in range(horizon))
    return Policy(label="-".join(actions), actions=actions)
