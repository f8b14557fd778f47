import numpy as np
import pytest

from actinf.dists import (
    EPS,
    CategoricalDistribution,
    delta,
    normalize,
    uniform,
)
from actinf.errors import DegenerateDistributionError, ShapeError


def test_normalize_assay_joint():
    # joint mass for the yellow-indicator update, acidic first
    d = normalize([0.1425, 0.0085], ["ph_acidic", "ph_ok"])
    assert d.probs == pytest.approx([0.9437086092715231, 0.056291390728476824])


def test_normalize_rejects_zero_mass():
    with pytest.raises(DegenerateDistributionError):
        normalize([0.0, 0.0], ["a", "b"])


def test_normalize_rejects_negative():
    with pytest.raises(DegenerateDistributionError):
        normalize([0.5, -0.1], ["a", "b"])


def test_constructor_checks_sum():
    with pytest.raises(DegenerateDistributionError):
        CategoricalDistribution(("a", "b"), np.array([0.6, 0.5]))
    # within tolerance is fine
    CategoricalDistribution(("a", "b"), np.array([0.5 + 4e-10, 0.5]))


def test_constructor_checks_labels():
    with pytest.raises(ShapeError):
        CategoricalDistribution(("a", "a"), np.array([0.5, 0.5]))
    with pytest.raises(ShapeError):
        CategoricalDistribution(("a",), np.array([0.5, 0.5]))
    with pytest.raises(ShapeError):
        CategoricalDistribution((), np.array([]))


def test_probs_are_immutable():
    d = uniform(["x", "y"])
    with pytest.raises(ValueError):
        d.probs[0] = 0.9


def test_entropy_uniform_and_delta():
    assert uniform(["a", "b"]).entropy() == pytest.approx(np.log(2))
    assert delta(["a", "b"], "a").entropy() == pytest.approx(0.0, abs=1e-10)


def test_prob_lookup_and_mode():
    d = normalize([1, 3], ["a", "b"])
    assert d.prob("b") == pytest.approx(0.75)
    assert d.mode() == "b"
    with pytest.raises(ShapeError):
        d.prob("c")


def test_normalization_survives_random_weights():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        w = rng.random(n) + EPS
        d = normalize(w, [f"o{i}" for i in range(n)])
        assert abs(float(d.probs.sum()) - 1.0) <= 1e-9
        assert np.all(d.probs >= 0)


@pytest.mark.parametrize("labels, probs, message", [
    (("a", "a"), [0.5, 0.5], "duplicate labels"),
    # the length check comes before the duplicate check
    (("a", "a", "b"), [0.5, 0.5], "3 labels but 2 probabilities"),
    ((1, "1"), [0.5, 0.5], "duplicate labels"),
])
def test_a_bad_label_tuple_is_rejected_on_every_call(labels, probs, message):
    for _ in range(3):
        with pytest.raises(ShapeError, match=message):
            CategoricalDistribution(labels, probs)


def test_labels_are_coerced_by_their_own_str():
    # equal labels that print differently keep their own text
    assert CategoricalDistribution((1, 2), [0.5, 0.5]).labels == ("1", "2")
    assert CategoricalDistribution((1.0, 2.0), [0.5, 0.5]).labels == ("1.0", "2.0")
    assert CategoricalDistribution((True, False), [0.5, 0.5]).labels == ("True", "False")
    assert CategoricalDistribution(("x", "y"), [0.5, 0.5]).labels == ("x", "y")


def test_unhashable_labels_are_checked_as_any_other():
    assert CategoricalDistribution(["a", "b"], [0.5, 0.5]).labels == ("a", "b")
    assert CategoricalDistribution((["a"], "b"), [0.5, 0.5]).labels == ("['a']", "b")
    assert CategoricalDistribution(iter(["a", "b"]), [0.5, 0.5]).labels == ("a", "b")
    for _ in range(2):
        with pytest.raises(ShapeError, match="duplicate labels"):
            CategoricalDistribution(["a", "a"], [0.5, 0.5])
        with pytest.raises(ShapeError, match="duplicate labels"):
            CategoricalDistribution((["a"], "['a']"), [0.5, 0.5])
