"""Bit-for-bit parity of the batched attack engine with per-example loops.

Every rewritten attack (DeepFool, C&W, JSMA, LSA, Boundary, HopSkipJump) is
checked against the frozen per-example reference implementation
(:mod:`attack_reference`) at batch sizes 1, 3 and 8, on the exact *and* the
approximate classifier: adversarial outputs must be byte-identical and the
query/gradient budgets must match exactly.  This is the contract that lets
the pipeline treat the shard size as pure execution tuning.
"""

from __future__ import annotations

import numpy as np
import pytest

from attack_reference import reference_perturb
from repro.attacks.base import QUERY_STATS
from repro.attacks.registry import ATTACKS

#: shrunken-but-representative parameters per attack (shared by both sides)
PARITY_CASES = {
    "deepfool": dict(max_iterations=4),
    "cw": dict(max_iterations=8, num_const_steps=2),
    "jsma": dict(gamma=0.03),
    "lsa": dict(max_rounds=3, candidates_per_round=10, pixels_per_round=2),
    "boundary": dict(max_iterations=8, init_trials=10),
    "hsj": dict(max_iterations=2, init_trials=10, num_eval_samples=6, binary_search_steps=3),
}
SEEDED = {"lsa", "boundary", "hsj"}
SEED = 1234


@pytest.fixture(scope="module")
def victims(digit_split, tiny_model):
    """Eight correctly classified victims (batch-8 is the largest parity case)."""
    images = digit_split.test.images
    labels = digit_split.test.labels
    correct = np.flatnonzero(tiny_model.predict(images) == labels)[:8]
    assert len(correct) == 8
    return images[correct].astype(np.float32), labels[correct]


def _attack(name, seed_offset=0):
    params = dict(PARITY_CASES[name])
    if name in SEEDED:
        params["seed"] = SEED
    attack = ATTACKS.create(name, **params)
    attack.seed_offset = seed_offset
    return attack


def _assert_parity(classifier, name, x, y, seed_offset=0):
    classifier.reset_counters()
    batched = _attack(name, seed_offset).perturb(classifier, x, y)
    batched_counts = (classifier.query_count, classifier.gradient_count)

    classifier.reset_counters()
    reference = reference_perturb(
        name,
        classifier,
        x,
        y,
        params=PARITY_CASES[name],
        seed=SEED if name in SEEDED else 0,
        seed_offset=seed_offset,
    )
    reference_counts = (classifier.query_count, classifier.gradient_count)

    assert batched.dtype == reference.dtype
    assert batched.tobytes() == reference.tobytes(), f"{name}: outputs diverge"
    assert batched_counts == reference_counts, f"{name}: query budget diverges"
    return batched


@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_batched_attack_matches_per_example_loop_exact(
    tiny_classifier, victims, name, batch
):
    x, y = victims
    _assert_parity(tiny_classifier, name, x[:batch], y[:batch])


@pytest.mark.parametrize("batch", [1, 3, 8])
@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_batched_attack_matches_per_example_loop_approx(
    tiny_approx_classifier, victims, name, batch
):
    x, y = victims
    _assert_parity(tiny_approx_classifier, name, x[:batch], y[:batch])


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seed_offset_decomposes_the_batch(tiny_classifier, victims, name):
    """Attacking victims [3:8] with seed_offset=3 reproduces rows 3:8 of the
    full batch -- the property that makes shard layout irrelevant."""
    x, y = victims
    full = _attack(name).perturb(tiny_classifier, x, y)
    tail = _attack(name, seed_offset=3).perturb(tiny_classifier, x[3:], y[3:])
    assert full[3:].tobytes() == tail.tobytes()


def test_batched_rollouts_amortise_model_calls(tiny_classifier, victims):
    """At batch 8 the engine issues far fewer calls than samples queried."""
    x, y = victims
    mark = QUERY_STATS.snapshot()
    _attack("deepfool").generate(tiny_classifier, x, y)
    delta = QUERY_STATS.delta(mark)
    assert delta["query_samples"] > delta["query_calls"]
    assert delta["gradient_samples"] > delta["gradient_calls"]
    mean_batch = delta["query_samples"] / delta["query_calls"]
    assert mean_batch > 1.5
    # counting is scoped to attack execution: calls outside generate() --
    # victim selection, transfer replays -- must not dilute the histogram
    mark = QUERY_STATS.snapshot()
    tiny_classifier.predict_logits(x)
    assert QUERY_STATS.delta(mark)["query_calls"] == 0
