"""Attack infrastructure: the classifier facade and the attack base class.

The :class:`Classifier` facade hides whether the underlying network is exact,
approximate (Defensive Approximation), quantised or bfloat16: attacks only use
its prediction and gradient entry points.  For approximate models the gradient
path is BPDA (backward through the exact layer at the activations cached by the
approximate forward), which is the strongest practical white-box attacker; see
:mod:`repro.nn.approx`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.counters import ProcessCounters
from repro.nn.functional import softmax
from repro.nn.layers import no_param_grads
from repro.nn.network import Sequential
from repro.obs.trace import TRACER


class QueryStats(ProcessCounters):
    """Process-level counters of classifier call batch sizes *during attacks*.

    The :class:`Classifier` prediction/gradient entry points report the
    batch size of each call issued while an attack is executing
    (:meth:`Attack.generate` opens the scope), so the pipeline can observe
    how well the batched attack engine is amortising model calls:
    ``*_calls_batch1`` counts degenerate single-example calls,
    ``*_samples / *_calls`` is the mean batch size.  Calls outside an
    attack -- victim-selection scans, transfer replays, accuracy sweeps --
    are deliberately excluded so the metric is not diluted by evaluation
    traffic.  Shares the GEMM kernel counters' per-process contract
    (:class:`repro.counters.ProcessCounters`): determinism guarantees
    exclude them, and each pool worker's deltas are returned with its shard
    results and folded into the run telemetry by the parent.
    """

    _FIELDS = (
        "query_calls",
        "query_samples",
        "query_calls_batch1",
        "gradient_calls",
        "gradient_samples",
        "gradient_calls_batch1",
    )

    def __init__(self) -> None:
        self._scope_depth = 0
        super().__init__()

    @contextmanager
    def attack_scope(self):
        """Mark the dynamic extent of one attack execution (reentrant)."""
        self._scope_depth += 1
        try:
            yield
        finally:
            self._scope_depth -= 1

    def record_query(self, batch: int) -> None:
        if not self._scope_depth:
            return
        self.query_calls += 1
        self.query_samples += int(batch)
        if batch == 1:
            self.query_calls_batch1 += 1

    def record_gradient(self, batch: int) -> None:
        if not self._scope_depth:
            return
        self.gradient_calls += 1
        self.gradient_samples += int(batch)
        if batch == 1:
            self.gradient_calls_batch1 += 1


#: process-wide classifier call-batch-size counters (reset never required;
#: consumers snapshot/delta like :data:`repro.arith.kernels.KERNEL_STATS`)
QUERY_STATS = QueryStats()


class Classifier:
    """Attack-facing facade around a :class:`~repro.nn.network.Sequential` model.

    Parameters
    ----------
    model:
        The wrapped network.
    clip_min, clip_max:
        Valid input range; adversarial examples are always clipped to it.
    """

    def __init__(self, model: Sequential, clip_min: float = 0.0, clip_max: float = 1.0):
        self.model = model
        self.clip_min = float(clip_min)
        self.clip_max = float(clip_max)
        self.query_count = 0
        self.gradient_count = 0
        # (serial, batch) stamp of the facade's most recent forward pass;
        # guards cached_logits_gradient against consuming another forward's
        # activations (see forward_serial)
        self._forward_serial = 0
        self._last_forward_batch: Optional[int] = None

    @property
    def forward_serial(self) -> int:
        """Monotonic id of the facade's most recent forward pass.

        Capture it right after a prediction and pass it to
        :meth:`cached_logits_gradient` to assert -- exactly, not just by
        batch size -- that no other forward overwrote the cached activations
        in between.
        """
        return self._forward_serial

    def _stamp_forward(self, batch: int) -> None:
        self._forward_serial += 1
        self._last_forward_batch = int(batch)

    # ------------------------------------------------------------ prediction
    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        """Raw class scores; counts as one query per sample."""
        self.query_count += len(x)
        QUERY_STATS.record_query(len(x))
        self._stamp_forward(len(x))
        with TRACER.span("model.forward", cat="model", batch=len(x)):
            return self.model.predict_logits(np.asarray(x, dtype=np.float32))

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax probabilities."""
        return softmax(self.predict_logits(x))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted labels."""
        return self.predict_logits(x).argmax(axis=1)

    @property
    def num_classes(self) -> int:
        """Number of output classes (inferred from the final linear layer)."""
        for layer in reversed(self.model.layers):
            if hasattr(layer, "out_features"):
                return int(layer.out_features)
        raise AttributeError("could not infer the number of classes from the model")

    # ------------------------------------------------------------- gradients
    def loss_gradient(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Gradient of the *unreduced* cross-entropy loss w.r.t. the input.

        The logit cotangent is built directly as ``softmax(logits) - onehot``
        rather than through the training criterion's batch-mean backward:
        dividing by the batch size and multiplying it back is not a
        floating-point identity, and would make a sample's gradient depend on
        how many neighbours shared its batch -- breaking the batched attack
        engine's bit-for-bit parity with per-example loops.
        """
        self.gradient_count += len(x)
        QUERY_STATS.record_gradient(len(x))
        x = np.asarray(x, dtype=np.float32)
        was_training = self.model.training
        self.model.set_training(False)
        try:
            with no_param_grads():  # attacks only consume the input gradient
                self._stamp_forward(len(x))
                with TRACER.span("model.loss_gradient", cat="model", batch=len(x)):
                    logits = self.model.forward(x)
                    grad_logits = softmax(logits)
                    grad_logits[np.arange(len(x)), np.asarray(y, dtype=np.int64)] -= 1.0
                    return self.model.backward(grad_logits)
        finally:
            self.model.set_training(was_training)

    def logits_gradient(self, x: np.ndarray, grad_logits: np.ndarray) -> np.ndarray:
        """Input gradient for an arbitrary cotangent on the logits (vector-Jacobian)."""
        (gradient,) = self.gradient_sweep(x, [grad_logits])
        return gradient

    def gradient_sweep(self, x: np.ndarray, cotangents) -> list:
        """Input gradients for several logit cotangents over **one** forward.

        The layer activation caches written by a forward pass stay valid
        across backward passes, so ``k`` vector-Jacobian products against the
        same input cost one forward plus ``k`` backwards instead of ``k``
        full round trips -- the forward is usually the expensive half (for
        approximate models it is the emulated datapath; the BPDA backward is
        exact BLAS).  Each cotangent counts as one gradient evaluation of
        ``len(x)`` samples, exactly as if issued through
        :meth:`logits_gradient`, and produces bit-identical gradients (the
        forward is deterministic, so re-running it per cotangent is pure
        waste).
        """
        x = np.asarray(x, dtype=np.float32)
        was_training = self.model.training
        self.model.set_training(False)
        try:
            with no_param_grads():
                self._stamp_forward(len(x))
                with TRACER.span(
                    "model.gradient_sweep", cat="model", batch=len(x)
                ) as span:
                    self.model.forward(x)
                    gradients = []
                    for cotangent in cotangents:
                        self.gradient_count += len(x)
                        QUERY_STATS.record_gradient(len(x))
                        gradients.append(
                            self.model.backward(np.asarray(cotangent, dtype=np.float32))
                        )
                    span["cotangents"] = len(gradients)
                    return gradients
        finally:
            self.model.set_training(was_training)

    def cached_logits_gradient(
        self, grad_logits: np.ndarray, forward_serial: Optional[int] = None
    ) -> np.ndarray:
        """Input gradient reusing the activations of the *last* forward pass.

        Must be called immediately after a prediction on the same batch (no
        other forward in between): the backward consumes the layer caches
        that prediction wrote.  Attacks that need the logits before they can
        build the cotangent (C&W's margin term) use this to avoid paying the
        forward twice; the result is bit-identical to
        :meth:`logits_gradient` on the same input and counts one gradient
        evaluation.

        Pass the :attr:`forward_serial` captured right after the prediction
        to assert the cached activations are exactly that forward's; without
        it only the cotangent/forward batch-size match is checked.  Either
        violation raises instead of silently corrupting gradients.
        """
        grad_logits = np.asarray(grad_logits, dtype=np.float32)
        if forward_serial is not None and forward_serial != self._forward_serial:
            raise RuntimeError(
                f"cached_logits_gradient: forward pass {forward_serial} is "
                f"stale (the facade is at {self._forward_serial}); another "
                "classifier call overwrote the cached activations"
            )
        if self._last_forward_batch != len(grad_logits):
            raise RuntimeError(
                "cached_logits_gradient: cotangent batch "
                f"({len(grad_logits)}) does not match the last forward pass "
                f"({self._last_forward_batch}); another classifier call "
                "overwrote the cached activations"
            )
        self.gradient_count += len(grad_logits)
        QUERY_STATS.record_gradient(len(grad_logits))
        was_training = self.model.training
        self.model.set_training(False)
        try:
            with no_param_grads():
                return self.model.backward(grad_logits)
        finally:
            self.model.set_training(was_training)

    def class_gradient(self, x: np.ndarray, class_index: np.ndarray) -> np.ndarray:
        """Gradient of the selected class logit w.r.t. the input, per sample.

        Counts as one gradient evaluation (inside :meth:`logits_gradient`) and
        zero prediction queries: the logit cotangent is built from
        :attr:`num_classes` instead of an uncounted forward pass, keeping the
        black-box budget bookkeeping exact.
        """
        grad = np.zeros((len(x), self.num_classes), dtype=np.float32)
        grad[np.arange(len(x)), np.asarray(class_index, dtype=np.int64)] = 1.0
        return self.logits_gradient(x, grad)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Full Jacobian of the logits w.r.t. the input: shape ``(N, classes, *input)``.

        Computed with one backward pass per class; intended for small models /
        small batches (JSMA, DeepFool).
        """
        n = len(x)
        n_classes = self.num_classes
        jac = np.zeros((n, n_classes) + x.shape[1:], dtype=np.float32)

        # one cotangent buffer reused across classes (set column k, backprop,
        # clear column k) instead of a fresh (N, n_classes) zero-fill per
        # class.  Safe because the sweep only *reads* each cotangent before
        # the next mutation.  Batched DeepFool and JSMA issue
        # jacobian-shaped call sequences per active set, so this buffer
        # discipline -- and the single shared forward of gradient_sweep --
        # is on their hot path.
        grad = np.zeros((n, n_classes), dtype=np.float32)

        def cotangents():
            for k in range(n_classes):
                grad[:, k] = 1.0
                yield grad
                grad[:, k] = 0.0

        for k, grad_k in enumerate(self.gradient_sweep(x, cotangents())):
            jac[:, k] = grad_k
        return jac

    # --------------------------------------------------------------- helpers
    def clip(self, x: np.ndarray) -> np.ndarray:
        """Clip to the valid input range."""
        return np.clip(x, self.clip_min, self.clip_max).astype(np.float32)

    def reset_counters(self) -> None:
        """Reset query and gradient counters (black-box budget bookkeeping)."""
        self.query_count = 0
        self.gradient_count = 0


@dataclass
class AttackResult:
    """Adversarial examples plus bookkeeping, returned by :meth:`Attack.generate`."""

    adversarial: np.ndarray
    original: np.ndarray
    labels: np.ndarray
    success: np.ndarray  # per-sample: prediction changed away from the true label

    @property
    def success_rate(self) -> float:
        return float(np.mean(self.success)) if len(self.success) else 0.0

    def l2_distances(self) -> np.ndarray:
        """Per-sample L2 distance between original and adversarial images."""
        diff = (self.adversarial - self.original).reshape(len(self.original), -1)
        return np.linalg.norm(diff, axis=1)


class Attack(ABC):
    """Base class of all evasion attacks (untargeted).

    Stochastic attacks draw *per-example* RNG streams: example ``i`` of a
    ``perturb`` call uses ``SeedSequence(entropy=seed,
    spawn_key=(seed_offset + i,))``.  Because the stream is keyed by the
    example's global position in the victim set -- not by the batch or shard
    it happened to be processed in -- results are bit-for-bit identical at
    every batch size and under any shard decomposition.
    """

    #: short identifier matching Table 1 of the paper
    name: str = "attack"

    #: global index of ``x[0]`` within the experiment's victim stream; the
    #: pipeline sets it to each shard's start offset so per-example RNG
    #: streams are invariant to the shard layout
    seed_offset: int = 0

    def example_rng(self, index: int) -> np.random.Generator:
        """The RNG stream of example ``index`` of the current ``perturb`` call.

        Requires the attack to expose a ``seed`` attribute (an integer or
        anything :class:`numpy.random.SeedSequence` accepts as entropy).
        """
        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=getattr(self, "seed"), spawn_key=(self.seed_offset + int(index),)
            )
        )

    @abstractmethod
    def perturb(self, classifier: Classifier, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Return adversarial versions of ``x`` (labels ``y`` are the true labels)."""

    def generate(self, classifier: Classifier, x: np.ndarray, y: np.ndarray) -> AttackResult:
        """Run the attack and evaluate its success against ``classifier`` itself."""
        x = np.asarray(x, dtype=np.float32)
        y = np.asarray(y, dtype=np.int64)
        with QUERY_STATS.attack_scope(), TRACER.span(
            "attack.generate", cat="attack", attack=self.name, n=len(x)
        ):
            adversarial = classifier.clip(self.perturb(classifier, x, y))
            predictions = classifier.predict(adversarial)
        return AttackResult(
            adversarial=adversarial, original=x, labels=y, success=predictions != y
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"
