"""Threat-model measurements: victim selection plus one primitive per measurement.

The paper's three attack scenarios (Section 3.1) reduce to two measurements
over victims that are already selected (:func:`select_correctly_classified`):

* :func:`transfer_counts` -- adversarial examples are crafted on a *source*
  classifier and replayed against one or more *target* classifiers.  With the
  exact model as the source and the DA model (DQ models, bfloat16, ...) as
  targets this is the grey-box transferability of Tables 2, 3, 5 and 10; with
  a query-trained substitute as the source and the victim as the single
  target it is the black-box attack of Table 4.
* :func:`whitebox_counts` -- the attack runs directly against the victim with
  full (BPDA) gradient access; robustness is measured by the perturbation
  budget required.  Behind Figures 8-11.

Both return raw counts (and per-example distances) rather than rates, so the
pipeline can split a cell's victims into shards and fold the shard counts
into the same rates a single pass would give.  Following the paper's
methodology, a target's transfer rate is its count over ``n_fooled`` -- the
examples that fool the source, the "100 %" column of the paper's tables.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.attacks.base import Attack, Classifier
from repro.core.metrics import l2_distance, mse, psnr


def select_correctly_classified(
    classifier: Classifier,
    images: np.ndarray,
    labels: np.ndarray,
    max_samples: Optional[int] = None,
    batch_size: int = 128,
) -> np.ndarray:
    """Indices of samples the classifier labels correctly (optionally capped).

    With ``max_samples`` the scan early-stops once enough correct samples are
    found, predicting in ``batch_size`` chunks: selecting a handful of victims
    no longer pays for classifying the whole test set (which is expensive on
    the emulated approximate hardware).  The returned indices are identical to
    a full scan followed by a cap -- the selection is a prefix property -- so
    every shard of a cell reproduces the same victim set.
    """
    labels = np.asarray(labels)
    if max_samples is None:
        predictions = classifier.predict(images)
        return np.flatnonzero(predictions == labels)
    collected = []
    found = 0
    for start in range(0, len(images), batch_size):
        stop = min(len(images), start + batch_size)
        predictions = classifier.predict(images[start:stop])
        hits = np.flatnonzero(predictions == labels[start:stop]) + start
        collected.append(hits)
        found += len(hits)
        if found >= max_samples:
            break
    indices = np.concatenate(collected) if collected else np.array([], dtype=np.intp)
    return indices[:max_samples]


def transfer_counts(
    source: Classifier,
    targets: Mapping[str, Classifier],
    attack: Attack,
    x: np.ndarray,
    y: np.ndarray,
) -> Dict[str, Any]:
    """Craft on ``source``, replay the examples that fool it on ``targets``.

    Returns ``{"n", "n_fooled", "targets": {name: count}}``: the victims
    attacked, how many of them fool the source, and per target how many of
    those fooling examples it misclassifies too.
    """
    out: Dict[str, Any] = {
        "n": int(len(x)),
        "n_fooled": 0,
        "targets": {name: 0 for name in targets},
    }
    if not len(x):
        return out
    result = attack.generate(source, x, y)
    adv = result.adversarial[result.success]
    adv_labels = y[result.success]
    out["n_fooled"] = int(result.success.sum())
    if len(adv):
        for name, target in targets.items():
            out["targets"][name] = int(np.sum(target.predict(adv) != adv_labels))
    return out


def whitebox_counts(
    victim: Classifier, attack: Attack, x: np.ndarray, y: np.ndarray
) -> Dict[str, Any]:
    """Attack ``victim`` directly and measure the noise each success needed.

    Returns ``{"n", "n_success", "l2", "mse", "psnr"}``: the victims
    attacked, how many were fooled, and the per-example L2 / MSE / PSNR
    distances (lists of floats) of the successful adversarial examples.
    """
    out: Dict[str, Any] = {"n": int(len(x)), "n_success": 0, "l2": [], "mse": [], "psnr": []}
    if not len(x):
        return out
    result = attack.generate(victim, x, y)
    adv = result.adversarial[result.success]
    clean = x[result.success]
    out["n_success"] = int(result.success.sum())
    if len(adv):
        out["l2"] = [float(v) for v in l2_distance(clean, adv)]
        out["mse"] = [float(v) for v in mse(clean, adv)]
        out["psnr"] = [float(v) for v in psnr(clean, adv)]
    return out
