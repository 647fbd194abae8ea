"""Tests for the adversarial attack suite.

The attacks run against the small trained model from ``conftest.py``; the
checks focus on attack invariants (norm constraints, clipping, success on an
undefended model) rather than exact success percentages.
"""

import numpy as np
import pytest

from repro.attacks import (
    FGSM,
    JSMA,
    PGD,
    BoundaryAttack,
    CarliniWagnerL2,
    DeepFool,
    HopSkipJump,
    LocalSearchAttack,
)
from repro.attacks.registry import ATTACKS
from repro.core.metrics import l0_distance, linf_distance


def test_fgsm_respects_epsilon_and_clip(tiny_classifier, attack_samples):
    x, y = attack_samples
    attack = FGSM(epsilon=0.1)
    result = attack.generate(tiny_classifier, x, y)
    assert result.adversarial.min() >= 0.0 and result.adversarial.max() <= 1.0
    assert np.all(linf_distance(x, result.adversarial) <= 0.1 + 1e-5)


def test_fgsm_fools_undefended_model(tiny_classifier, attack_samples):
    x, y = attack_samples
    result = FGSM(epsilon=0.25).generate(tiny_classifier, x, y)
    assert result.success_rate >= 0.5


def test_fgsm_validates_epsilon():
    with pytest.raises(ValueError):
        FGSM(epsilon=0.0)


def test_pgd_stays_in_epsilon_ball(tiny_classifier, attack_samples):
    x, y = attack_samples
    attack = PGD(epsilon=0.12, steps=8)
    result = attack.generate(tiny_classifier, x, y)
    assert np.all(linf_distance(x, result.adversarial) <= 0.12 + 1e-5)
    assert result.adversarial.min() >= 0.0 and result.adversarial.max() <= 1.0


def test_pgd_is_at_least_as_strong_as_fgsm(tiny_classifier, attack_samples):
    x, y = attack_samples
    fgsm = FGSM(epsilon=0.15).generate(tiny_classifier, x, y)
    pgd = PGD(epsilon=0.15, steps=15).generate(tiny_classifier, x, y)
    assert pgd.success_rate >= fgsm.success_rate - 1e-9


def test_pgd_validates_arguments():
    with pytest.raises(ValueError):
        PGD(epsilon=-1)
    with pytest.raises(ValueError):
        PGD(steps=0)


@pytest.mark.parametrize(
    "attack",
    [
        FGSM(epsilon=0.1),
        PGD(epsilon=0.1, steps=2, random_start=True),
        JSMA(theta=0.8, gamma=0.1),
        DeepFool(max_iterations=3),
        CarliniWagnerL2(max_iterations=3, num_const_steps=2),
        LocalSearchAttack(max_rounds=3, seed=0),
        BoundaryAttack(max_iterations=3, seed=0),
        HopSkipJump(max_iterations=2, seed=0),
    ],
    ids=lambda a: a.name,
)
def test_attacks_handle_empty_batch(tiny_classifier, attack_samples, attack):
    # the per-example loops no-op'd on an empty victim slice; the batched
    # rollouts (and PGD's np.stack of per-example noise draws) must too
    x, y = attack_samples
    empty = attack.perturb(tiny_classifier, x[:0], y[:0])
    assert empty.shape == x[:0].shape


def test_jsma_modifies_few_pixels(tiny_classifier, attack_samples):
    x, y = attack_samples
    attack = JSMA(theta=0.8, gamma=0.1)
    result = attack.generate(tiny_classifier, x[:3], y[:3])
    n_features = int(np.prod(x.shape[1:]))
    assert np.all(l0_distance(x[:3], result.adversarial) <= 0.1 * n_features + 1)


def test_jsma_validates_gamma():
    with pytest.raises(ValueError):
        JSMA(gamma=0.0)


def test_cw_finds_small_perturbations(tiny_classifier, attack_samples):
    x, y = attack_samples
    attack = CarliniWagnerL2(max_iterations=60, initial_const=1.0)
    result = attack.generate(tiny_classifier, x[:3], y[:3])
    assert result.success_rate > 0.5
    distances = result.l2_distances()[result.success]
    assert np.all(distances < 4.0)


def test_deepfool_success_and_small_norm(tiny_classifier, attack_samples):
    x, y = attack_samples
    result = DeepFool(max_iterations=30).generate(tiny_classifier, x[:4], y[:4])
    assert result.success_rate > 0.5
    assert np.all(result.l2_distances()[result.success] < 5.0)


def test_lsa_uses_only_scores(tiny_classifier, attack_samples):
    x, y = attack_samples
    clf = tiny_classifier
    clf.reset_counters()
    LocalSearchAttack(max_rounds=4, candidates_per_round=12).generate(clf, x[:2], y[:2])
    assert clf.gradient_count == 0  # score-based: never calls the gradient
    assert clf.query_count > 0


def test_boundary_attack_output_valid_and_gradient_free(tiny_classifier, attack_samples):
    x, y = attack_samples
    clf = tiny_classifier
    clf.reset_counters()
    result = BoundaryAttack(max_iterations=30, init_trials=20).generate(clf, x[:2], y[:2])
    assert clf.gradient_count == 0
    assert result.adversarial.min() >= 0.0 and result.adversarial.max() <= 1.0


def test_hopskipjump_reduces_distance_over_plain_start(tiny_classifier, attack_samples):
    x, y = attack_samples
    clf = tiny_classifier
    clf.reset_counters()
    result = HopSkipJump(max_iterations=3, init_trials=20, num_eval_samples=10).generate(
        clf, x[:2], y[:2]
    )
    assert clf.gradient_count == 0
    # successful samples should be closer to the original than a random image would be
    if result.success.any():
        assert result.l2_distances()[result.success].max() < np.sqrt(x[0].size)


def test_attack_result_bookkeeping(tiny_classifier, attack_samples):
    x, y = attack_samples
    result = FGSM(epsilon=0.2).generate(tiny_classifier, x, y)
    assert result.adversarial.shape == x.shape
    assert result.success.shape == (len(x),)
    assert len(result.l2_distances()) == len(x)
    assert 0.0 <= result.success_rate <= 1.0


def test_registry_lists_all_eight_attacks():
    names = ATTACKS.names()
    assert len(names) == 8
    for expected in ("fgsm", "pgd", "jsma", "cw", "deepfool", "lsa", "boundary", "hsj"):
        assert expected in names


def test_registry_creates_attacks_with_overrides():
    attack = ATTACKS.create("fgsm", epsilon=0.3)
    assert isinstance(attack, FGSM)
    assert attack.epsilon == 0.3
    with pytest.raises(KeyError):
        ATTACKS.create("unknown-attack")


def test_registry_metadata_matches_table1():
    assert ATTACKS.metadata("cw")["strength"] == 5
    assert ATTACKS.metadata("fgsm")["learning"] == "one-shot"
    assert ATTACKS.metadata("boundary")["category"] == "decision-based"
    assert ATTACKS.metadata("jsma")["norm"] == "L0"
