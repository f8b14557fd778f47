import math

import numpy as np
import pytest

from actinf.dists import CategoricalDistribution, delta, normalize, uniform
from actinf.errors import ImpossibleObservationError, ShapeError
from actinf.inference import VfeReport, bayes_update, compute_vfe, kl_divergence, surprise


def test_kl_hand_computed_value():
    q = normalize([0.5, 0.5], ["a", "b"])
    p = normalize([0.25, 0.75], ["a", "b"])
    assert kl_divergence(q, p) == pytest.approx(0.14384103622589042, abs=1e-12)


def test_kl_with_zero_mass_uses_floor():
    q = delta(["a", "b"], "a")
    p = uniform(["a", "b"])
    assert kl_divergence(q, p) == pytest.approx(math.log(2), abs=1e-12)
    # reversed direction: q puts no mass where p concentrates, still finite
    assert kl_divergence(p, q) == pytest.approx(0.5 * math.log(0.5 / 1e-12) + 0.5 * math.log(0.5))


def test_kl_rejects_label_mismatch():
    with pytest.raises(ShapeError):
        kl_divergence(uniform(["a", "b"]), uniform(["b", "a"]))


def test_kl_nonnegative_and_zero_iff_equal_randomized():
    rng = np.random.default_rng(11)
    labels = ["s0", "s1", "s2"]
    for _ in range(1000):
        q = normalize(rng.random(3) + 1e-9, labels)
        p = normalize(rng.random(3) + 1e-9, labels)
        kl = kl_divergence(q, p)
        assert kl >= 0.0
        assert kl_divergence(q, q) <= 1e-9
        if not np.allclose(q.probs, p.probs, atol=1e-9):
            assert kl > 0.0


def test_bayes_update_assay_posterior():
    prior = normalize([0.85, 0.15], ["ph_ok", "ph_acidic"])
    post = bayes_update(prior, np.array([0.01, 0.95]))
    assert post.prob("ph_acidic") == pytest.approx(0.9437086092715231, abs=1e-12)


def test_bayes_update_impossible_observation():
    prior = normalize([1.0, 0.0], ["a", "b"])
    with pytest.raises(ImpossibleObservationError):
        bayes_update(prior, np.array([0.0, 0.9]))


def test_bayes_update_shape_check():
    prior = uniform(["a", "b"])
    with pytest.raises(ShapeError):
        bayes_update(prior, np.array([0.1, 0.2, 0.3]))


def test_bayes_update_uniform_likelihood_keeps_prior():
    rng = np.random.default_rng(3)
    for _ in range(200):
        prior = normalize(rng.random(4) + 1e-9, ["a", "b", "c", "d"])
        post = bayes_update(prior, np.full(4, 0.25))
        assert np.allclose(post.probs, prior.probs, atol=1e-12)


def test_vfe_uniform_everything():
    u = uniform(["a", "b"])
    report = compute_vfe(u, u, np.array([0.5, 0.5]))
    assert report.complexity == pytest.approx(0.0, abs=1e-12)
    assert report.total == pytest.approx(math.log(2), abs=1e-12)


def test_vfe_equals_surprise_at_exact_posterior():
    # With the exact Bayes posterior, free energy collapses to the
    # negative log evidence of the outcome.
    rng = np.random.default_rng(23)
    labels = ["s0", "s1", "s2"]
    for _ in range(500):
        prior = normalize(rng.random(3) + 1e-6, labels)
        lik = rng.random(3) * 0.98 + 0.01
        post = bayes_update(prior, lik)
        report = compute_vfe(post, prior, lik)
        evidence = float(np.sum(prior.probs * lik))
        assert report.total == pytest.approx(-math.log(evidence), abs=1e-8)
        assert report.total == pytest.approx(report.complexity - report.accuracy, abs=1e-12)


def test_vfe_report_consistency_check():
    with pytest.raises(ShapeError):
        VfeReport(complexity=1.0, accuracy=0.5, total=0.0)


def test_assay_yellow_observation_spikes_vfe():
    # Baseline: entropy of the scenario prior. The yellow reading must
    # push free energy past four times that baseline.
    prior = normalize([0.85, 0.15], ["ph_ok", "ph_acidic"])
    baseline = prior.entropy()
    lik = np.array([0.01, 0.95])
    post = bayes_update(prior, lik)
    report = compute_vfe(post, prior, lik)
    assert report.total > 4.0 * baseline
    assert report.total == pytest.approx(1.8904754421672127, abs=1e-9)


def test_surprise_values():
    pred = uniform(["yellow", "green"])
    assert surprise("yellow", pred) == pytest.approx(math.log(2))
    certain = delta(["yellow", "green"], "green")
    assert surprise("yellow", certain) == pytest.approx(-math.log(1e-12))
    assert surprise("green", certain) == pytest.approx(0.0, abs=1e-12)
