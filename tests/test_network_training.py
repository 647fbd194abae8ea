"""Tests for the Sequential container and the training loop."""

import numpy as np
import pytest
from conv_reference import einsum_training_convs

from repro.datasets import generate_digits
from repro.experiments.zoo import DQ_OBJECTS_RECIPE, LENET_DIGITS_RECIPE
from repro.nn import (
    Adam,
    CrossEntropyLoss,
    build_dq_cnn,
    build_lenet5,
    evaluate_accuracy,
    train_classifier,
)
from repro.nn import training as training_module
from repro.nn.layers import BatchNorm2d, Flatten, Linear, ReLU
from repro.nn.network import Sequential


def small_mlp(in_features=16, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        [Flatten(), Linear(in_features, 12, rng=rng), ReLU(), Linear(12, classes, rng=rng)],
        name="mlp",
    )


def test_forward_backward_shapes():
    model = small_mlp()
    x = np.random.default_rng(0).normal(size=(5, 1, 4, 4)).astype(np.float32)
    logits = model.forward(x)
    assert logits.shape == (5, 3)
    grad = model.backward(np.ones_like(logits))
    assert grad.shape == x.shape


def test_predict_helpers_consistency():
    model = small_mlp()
    x = np.random.default_rng(1).normal(size=(4, 1, 4, 4)).astype(np.float32)
    logits = model.predict_logits(x)
    probs = model.predict_proba(x)
    labels = model.predict(x)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-5)
    np.testing.assert_array_equal(labels, logits.argmax(axis=1))


def test_predict_logits_restores_training_mode():
    model = small_mlp()
    model.set_training(True)
    model.predict_logits(np.zeros((1, 1, 4, 4), dtype=np.float32))
    assert model.training is True


def test_state_dict_roundtrip():
    model_a = small_mlp(seed=0)
    model_b = small_mlp(seed=99)
    model_b.load_state_dict(model_a.state_dict())
    x = np.random.default_rng(2).normal(size=(3, 1, 4, 4)).astype(np.float32)
    np.testing.assert_allclose(model_a.predict_logits(x), model_b.predict_logits(x), rtol=1e-6)


def test_state_dict_mismatch_raises():
    model = small_mlp()
    other = Sequential([Flatten(), Linear(16, 3)])
    with pytest.raises(KeyError):
        other.load_state_dict(model.state_dict())


def test_save_and_load(tmp_path):
    model_a = small_mlp(seed=1)
    path = tmp_path / "weights.npz"
    model_a.save(str(path))
    model_b = small_mlp(seed=42)
    model_b.load(str(path))
    x = np.random.default_rng(3).normal(size=(2, 1, 4, 4)).astype(np.float32)
    np.testing.assert_allclose(model_a.predict_logits(x), model_b.predict_logits(x), rtol=1e-6)


def test_num_parameters_counts_everything():
    model = small_mlp()
    expected = 16 * 12 + 12 + 12 * 3 + 3
    assert model.num_parameters() == expected


def test_zero_grad_resets_gradients():
    model = small_mlp()
    x = np.zeros((2, 1, 4, 4), dtype=np.float32)
    logits = model.forward(x)
    model.backward(np.ones_like(logits))
    model.zero_grad()
    assert all(np.all(p.grad == 0) for p in model.parameters())


def test_training_reduces_loss_and_reaches_high_accuracy():
    dataset = generate_digits(400, size=12, seed=11)
    model = build_lenet5((1, 12, 12), conv_channels=(4, 8), fc_sizes=(32, 24), dropout=0.0, seed=1)
    history = train_classifier(
        model,
        Adam(model.parameters(), lr=0.004),
        dataset.images,
        dataset.labels,
        epochs=15,
        batch_size=32,
    )
    assert history.losses[-1] < history.losses[0]
    # well above the 10 % chance level on this deliberately tiny setup
    assert history.train_accuracies[-1] > 0.4


def test_training_history_tracks_validation():
    dataset = generate_digits(200, size=12, seed=12)
    model = build_lenet5((1, 12, 12), conv_channels=(4, 8), fc_sizes=(24, 16), dropout=0.0, seed=2)
    history = train_classifier(
        model,
        Adam(model.parameters(), lr=0.003),
        dataset.images[:150],
        dataset.labels[:150],
        dataset.images[150:],
        dataset.labels[150:],
        epochs=3,
        batch_size=32,
    )
    assert len(history.val_accuracies) == 3
    assert 0.0 <= history.final_val_accuracy <= 1.0


def test_train_set_accuracy_needs_no_evaluation_pass(monkeypatch):
    dataset = generate_digits(100, size=12, seed=14)
    model = build_lenet5((1, 12, 12), conv_channels=(4, 8), fc_sizes=(24, 16), dropout=0.0)
    calls = []

    def counting_evaluate(model, x, y, batch_size=256):
        calls.append(len(x))
        return evaluate_accuracy(model, x, y, batch_size)

    monkeypatch.setattr(training_module, "evaluate_accuracy", counting_evaluate)
    optimizer = Adam(model.parameters(), lr=0.003)
    images, labels = dataset.images, dataset.labels
    history = train_classifier(model, optimizer, images, labels, epochs=2, batch_size=32)
    assert calls == []
    assert len(history.train_accuracies) == 2
    assert all(0.0 <= acc <= 1.0 for acc in history.train_accuracies)

    train_classifier(
        model, optimizer, images[:80], labels[:80], images[80:], labels[80:], epochs=2
    )
    assert calls == [20, 20]  # the validation split only, once per epoch


def _lenet_digits():
    arch = LENET_DIGITS_RECIPE["arch"]
    return build_lenet5(
        (1, 16, 16),
        conv_channels=tuple(arch["conv_channels"]),
        fc_sizes=tuple(arch["fc_sizes"]),
        dropout=arch["dropout"],
        seed=arch["seed"],
    )


def _dq_full_objects():
    return build_dq_cnn((3, 32, 32), bits=4, mode="full", seed=DQ_OBJECTS_RECIPE["arch"]["seed"])


@pytest.mark.parametrize(
    "build,input_shape,n_samples",
    [
        (_lenet_digits, (1, 16, 16), 64 * 2 + 36),  # fast LeNet's ragged batch
        (_dq_full_objects, (3, 32, 32), 64 * 2 + 32),  # full DQ's ragged batch
    ],
    ids=["lenet", "dq_full"],
)
def test_three_training_steps_match_the_einsum_reference(build, input_shape, n_samples):
    rng = np.random.default_rng(0)
    x = rng.random((n_samples, *input_shape)).astype(np.float32)
    y = rng.integers(0, 10, size=n_samples)

    def train_three_steps() -> Sequential:
        model = build()
        optimizer = Adam(model.parameters(), lr=0.002)
        train_classifier(model, optimizer, x, y, epochs=1, batch_size=64)
        return model

    model = train_three_steps()
    with einsum_training_convs():
        reference = train_three_steps()
    # every parameter plus the BatchNorm running statistics (state buffers)
    state, expected = model.state_dict(), reference.state_dict()
    assert state.keys() == expected.keys()
    for key in expected:
        np.testing.assert_array_equal(state[key], expected[key], err_msg=key)
    initial = build().state_dict()
    assert any(np.any(state[key] != initial[key]) for key in state)  # it trained
    n_batchnorms = sum(isinstance(layer, BatchNorm2d) for layer in model.layers)
    assert sum("running_" in key for key in state) == 2 * n_batchnorms


def test_evaluate_accuracy_bounds():
    dataset = generate_digits(50, size=12, seed=13)
    model = build_lenet5((1, 12, 12), conv_channels=(4, 8), fc_sizes=(24, 16), dropout=0.0)
    acc = evaluate_accuracy(model, dataset.images, dataset.labels)
    assert 0.0 <= acc <= 1.0


def test_cross_entropy_plus_network_gradient_direction():
    """One SGD-style step along the gradient must reduce the loss."""
    model = small_mlp(seed=5)
    x = np.random.default_rng(6).normal(size=(8, 1, 4, 4)).astype(np.float32)
    y = np.random.default_rng(7).integers(0, 3, size=8)
    criterion = CrossEntropyLoss()
    loss_before = criterion.forward(model.forward(x), y)
    model.backward(criterion.backward())
    for p in model.parameters():
        p.value -= 0.05 * p.grad
    loss_after = CrossEntropyLoss().forward(model.forward(x), y)
    assert loss_after < loss_before
