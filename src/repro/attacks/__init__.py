"""Adversarial attack suite.

Implements the eight evasion attacks the paper evaluates (Table 1):

===========  ===============  ======  ==========
Attack       Category         Norm    Learning
===========  ===============  ======  ==========
FGSM         gradient-based   Linf    one-shot
PGD          gradient-based   Linf    iterative
JSMA         gradient-based   L0      iterative
C&W          gradient-based   L2      iterative
DeepFool     gradient-based   L2      iterative
LSA          score-based      L2      iterative
Boundary     decision-based   L2      iterative
HopSkipJump  decision-based   L2      iterative
===========  ===============  ======  ==========

Every attack operates on the :class:`~repro.attacks.base.Classifier` facade so
the same code runs against exact, approximate (DA), quantised and bfloat16
models.
"""

#: numerics version of the attack suite: bump when attack semantics change
#: (seeding scheme, rollout order, query accounting) so attack-evaluation
#: cells re-key.  Version 1: per-shard SeedSequence-spawned attack seeds
#: (the old ``CELL_CACHE_VERSION = 2``).  Version 2: the batched active-set
#: engine -- per-example RNG streams keyed by global victim index, loss
#: gradient without the ``/N * N`` roundtrip, per-example C&W constant
#: escalation (the old ``CELL_CACHE_VERSION = 4``; the parity suite in
#: ``tests/test_attack_parity.py`` pins these semantics).
ATTACK_NUMERICS_VERSION = 2

from repro.attacks.base import Attack, AttackResult, Classifier
from repro.attacks.boundary import BoundaryAttack
from repro.attacks.carlini_wagner import CarliniWagnerL2
from repro.attacks.deepfool import DeepFool
from repro.attacks.fgsm import FGSM
from repro.attacks.hopskipjump import HopSkipJump
from repro.attacks.jsma import JSMA
from repro.attacks.lsa import LocalSearchAttack
from repro.attacks.pgd import PGD
from repro.attacks.registry import ATTACKS, AttackSpec

__all__ = [
    "Attack",
    "AttackResult",
    "Classifier",
    "FGSM",
    "PGD",
    "JSMA",
    "CarliniWagnerL2",
    "DeepFool",
    "LocalSearchAttack",
    "BoundaryAttack",
    "HopSkipJump",
    "ATTACKS",
    "AttackSpec",
]
