#!/usr/bin/env python3
"""End-to-end benchmark: ``python -m repro run all --fast --jobs 2``.

One operation is one CLI invocation of the whole fast catalog (17
experiments, 63 unique grid cells), run in a closed loop from this process
with one invocation in flight at a time.  The workloads differ only in the
cache state each operation starts from:

``catalog_cold``  empty zoo cache and empty cell cache: trains 6 models,
                  computes 63 cells.
``cells_cold``    trained zoo, empty cell cache: trains nothing, computes 63.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload cells_cold --seed 3 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs separate
traced operations and prints the per-layer breakdown (see :func:`traced`).
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are a
human-readable report.  ``peak_rss_mb`` is the peak resident set of the
largest single process of an op (``ru_maxrss`` of its process tree, which
Linux reports as the maximum over the processes, not their sum).

Every operation gets its own ``REPRO_DA_CACHE``, ``--cache-dir`` and
``--results-dir`` under ``e2ebench/_state/`` (git-ignored), and runs with
every inherited ``REPRO_*`` variable removed from its environment.
``cells_cold`` needs a trained zoo: the first run that needs one builds it
with a default-seed cold op, once per source tree (keyed on a hash of
``src/``); that op is checked like any other and, if it fails, counts as a
failed op of the run.  Every operation's outputs are checked: exit status,
the 17 result files, the cell and model counts its cache state implies,
golden digests, and byte equality with every other operation at the same
seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from shim import DEFAULT_SEED, LAYER_TARGETS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
STATE = BENCH / "_state"
SHIM = BENCH / "shim.py"

#: worker processes of the measured command (``auto`` on the 2-core box the
#: benchmark was written on, pinned so that results do not depend on nproc)
JOBS = 2
EXPERIMENTS = 17
CELLS = 63
MODELS = 6
#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: fixtures kept under ``_state``: this source tree's and the last other one,
#: so that runs alternating between two trees do not rebuild every time
FIXTURES_KEPT = 2
#: bump when the fixture layout or its build command changes
FIXTURE_FORMAT = 2

#: result-file digests of the model-free experiments.  The seed rewrite
#: leaves their specs untouched, so they hold for every ``--seed``.
GOLDEN = {
    "fig03_axfpm_noise": "2ea764cc7a8a45637f5c5199efc3c11d3c23f0d7a50fc9736b78a274af7dde41",
    "fig13_bfloat16_noise": "57df4d347440d89ce28cd13cfca6d31337effd6ea4724c01c31f1a6483378de6",
    "fig15_heap_noise": "d8df0a9d43865328cd34288625fe41341ed75cfa096d2a8a6cf9f6e8beaa05f6",
    "table07_energy_delay": "653af414364ba15cc103e58f8e1b50f749be82f3df75eef440d2a4edbe8fce6f",
    "table09_mantissa_energy": "92c2e0a02d870e1d73b2f109dee8475e704a1d72b7fc04427e3b145305335e68",
}

#: The numerical platform MODEL_GOLDEN and ZOO_GOLDEN were recorded on (see
#: :func:`environment`).  Training and attacks round through BLAS and
#: numpy's SIMD loops, which may round differently on another CPU, library
#: build or thread count, so elsewhere these digests are not checked.
GOLDEN_PLATFORM = (
    "nproc=2 numpy=2.4.6 blas=scipy-openblas 0.3.31.188.0 blas_threads=default"
    " simd=X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"
)

#: result-file digests of the model-based experiments at the default seed
MODEL_GOLDEN = {
    "fig04_approx_convolution": "a6be707176b7e4204b6bbe0b205bc4f139ddd44f3bebffc1336a04aafe9af099",
    "fig08_09_whitebox_l2": "9b224ca8d87758e4a4c909ab24b104faa7c8ea18be86e5bac31950633907024d",
    "fig10_11_whitebox_psnr_mse": "732da213a5d448dafef9b3c4645752570ea8f824a59fe0afe26c90150fd403bb",
    "fig12_confidence_cdf": "40ee6088f9061fbfd338bafdbf7f2695a337944bf4d085fbb70201ffb80fe1c0",
    "fig16_heatmaps": "3e1cd30b2776dcca1dc685194ae2baabd54ab872a58758d77e19dddcc6f0f9dc",
    "table02_transferability_mnist": "b65a95d980559074bc7bc360d027f4a6c75da81293859206c4d628dac200e172",
    "table03_transferability_cifar": "079196ea910bcb42851f6d1eac30acfee9fa3f302d404a1f8d1bfcc1578fa13c",
    "table04_blackbox_mnist": "b77dc4e0f8f5e97e5c41a536a0345c8f13d1de368fc522e74cc5d7c68926fc4a",
    "table05_da_vs_dq": "b8209944e82cc318f64e0988549bf88aa1bd811d2058935171783cc191789366",
    "table06_accuracy": "3728c2a35d99a244b21d479a34863eb4c2f769c65b1ba32959491bff63b8b6cf",
    "table08_multiplier_accuracy": "ac12a3d5a974d583818f7b54af2af95c68bd121345540e37966cc155cd44ab79",
    "table10_heap_transferability": "261ada1fa1b8a427a674436b599bdac00adf5cf542b106ed78d09189125026d4",
}

#: file digests of the trained zoo, by model (the recipe-digest suffix of the
#: file name stripped).  Training ignores ``--seed``, so they hold for every
#: seed.
ZOO_GOLDEN = {
    "alexnet_objects_fast": "d2075efbba09eef0309dca7681cf5fd15067dd4fca50bb156df0d0f52c99dba3",
    "dq_full_objects_4b_fast": "c6feb5fa57e887a5a2000765dde43059c15d89dfa2fa95ebd7f51fadc5c7071d",
    "dq_weight_objects_4b_fast": "1279a99f009291980e94c979fef0037b39590599b85b79ab1794eaa1ad8693ba",
    "lenet_digits_fast": "f2f3157766dfc71fc2141d30dff4ebda5f89dbe69316f1b1905744a5a2d6cde3",
    "substitute_da_digits_fast": "186e8288dffaeee2ecd7a788ff4247c0bd1cfa590f4b36c8fbb04fe9804d5ef6",
    "substitute_exact_digits_fast": "6da13ec86243fee8fa9545a60c6a66c96d55e5376e4344f2cb8647e096261453",
}


@dataclass(frozen=True)
class Workload:
    name: str
    zoo: bool  #: an op starts with the trained zoo
    nominal_op_s: float  #: planning constant: ops per run = seconds / this
    trained: int  #: models an op must train
    computed: int  #: cells an op must compute (the rest must hit)
    #: the traced run also runs an untraced serial twin (see :func:`traced`)
    serial_twin: bool
    #: traced spans that must record at least one call
    exercised: Tuple[str, ...] = ()


_COMPUTE = (
    "cli.import",
    "store.get",
    "pipeline.run",
    "pipeline.plan",
    "pipeline.outlook",
    "pipeline.assemble",
    "pipeline.write",
    "datasets.generate_digits",
    "datasets.generate_objects",
    "nn.forward",
    "nn.backward",
    "nn.im2col",
    "nn.col2im",
    "arith.gemm.fused",
    "arith.gemm.fallback",
    "attacks.generate",
    "store.put",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "catalog_cold", False, 70.0, MODELS, CELLS, False,
            _COMPUTE + ("zoo.train", "zoo.train_substitute", "zoo.save", "nn.optim_step.sgd"),
        ),
        Workload("cells_cold", True, 10.0, 0, CELLS, True, _COMPUTE + ("zoo.load",)),
    )
}

# ------------------------------------------------------------------ statistics
def tail_percentile(samples: List[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)`` of the highest percentile with >= 10 samples
    beyond it, or ``None`` with fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover.

    ``spans`` are ``[name, start, end, parent]`` in opening order (a parent
    precedes its children); valid only when :func:`nesting_problems` finds
    none.
    """
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def nesting_problems(spans: List[list]) -> List[str]:
    """Spans that never closed, leave their parent's interval or overlap an
    earlier sibling -- as a wrapped call that runs on another thread, or
    returns a generator that runs later, would produce."""
    problems = []
    sibling_end: Dict[int, float] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        if end is None:
            problems.append(f"{name} (span {index}) never closed")
            continue
        if parent < 0:
            continue
        parent_name, parent_start, parent_end, _ = spans[parent]
        if parent_end is None or start < parent_start or end > parent_end:
            problems.append(f"{name} (span {index}) is not inside its parent {parent_name}")
        elif start < sibling_end.get(parent, parent_start):
            problems.append(f"{name} (span {index}) overlaps an earlier sibling")
        sibling_end[parent] = end
    return problems


def outer_seconds(spans: List[list], names) -> float:
    """Total duration of spans named in ``names`` with no such ancestor."""
    names = set(names)
    inside = [False] * len(spans)
    total = 0.0
    for index, (name, start, end, parent) in enumerate(spans):
        enclosed = parent >= 0 and (inside[parent] or spans[parent][0] in names)
        inside[index] = enclosed
        if name in names and not enclosed:
            total += end - start
    return total


# ------------------------------------------------------------------ outputs
def canonical_result(text: str) -> str:
    """A result JSON as canonical text, without the fields the program declares
    may differ between two executions.

    Compared as text, not as dicts: ``nan != nan`` would make equal results
    with a NaN metric compare unequal.
    """
    from repro.pipeline.runner import NONDETERMINISTIC_RESULT_FIELDS

    payload = json.loads(text)
    for key in NONDETERMINISTIC_RESULT_FIELDS:
        payload.pop(key, None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def result_digests(results: Path) -> Dict[str, str]:
    """``{experiment: sha256 of its canonical JSON and its .txt table}``."""
    digests = {}
    for path in sorted(results.glob("*.json")):
        if path.name.endswith(".manifest.json"):
            continue
        table_path = path.with_suffix(".txt")
        body = canonical_result(path.read_text()).encode()
        table = table_path.read_bytes() if table_path.exists() else b"<missing .txt>"
        digests[path.stem] = hashlib.sha256(body + b"\0" + table).hexdigest()
    return digests


def model_name(path: Path) -> str:
    """A zoo file's model: its stem without the recipe-digest suffix."""
    return re.sub(r"_[0-9a-f]{10}$", "", path.stem)


SUMMARY_RE = re.compile(r"^# run summary: (\d+) cells \((\d+) cached, (\d+) computed", re.M)


def check_op(
    op: "Op",
    workload: Workload,
    golden: Dict[str, str],
    zoo_golden: Dict[str, str],
    reference: Optional[Dict[str, str]],
) -> List[str]:
    """Everything wrong with one finished op (empty when it is correct).

    ``golden`` and ``zoo_golden`` are the frozen result and trained-model
    digests that apply to the op's seed and platform; ``reference`` the
    result digests of an earlier op at the same seed, if any.
    """
    problems = []
    if op.returncode != 0:
        tail = op.stderr().strip().splitlines()[-1:] or ["<no stderr>"]
        return [f"exit status {op.returncode}: {tail[0]}"]
    digests = result_digests(op.results)
    if len(digests) != EXPERIMENTS:
        problems.append(f"{len(digests)} result files, expected {EXPERIMENTS}")
    match = SUMMARY_RE.search(op.stdout())
    if match is None:
        problems.append("no run summary line")
    else:
        total, hit, computed = (int(g) for g in match.groups())
        expected = (CELLS, CELLS - workload.computed, workload.computed)
        if (total, hit, computed) != expected:
            problems.append(
                f"cells total/hit/computed {total}/{hit}/{computed}, expected "
                + "/".join(map(str, expected))
            )
    trained = op.trained_models()
    if len(trained) != workload.trained:
        problems.append(f"trained {len(trained)} models, expected {workload.trained}")
    for path in trained:
        golden_model = zoo_golden.get(model_name(path))
        if golden_model and hashlib.sha256(path.read_bytes()).hexdigest() != golden_model:
            problems.append(f"model {model_name(path)}: weights differ from its golden digest")
    for name, digest in sorted(golden.items()):
        if digests.get(name) != digest:
            problems.append(f"{name}: output differs from its golden digest")
    for name, digest in sorted((reference or {}).items()):
        if digests.get(name) != digest:
            problems.append(f"{name}: output differs from the other ops at this seed")
    op.digests = digests
    return problems


# ------------------------------------------------------------------ ops
def child_env(zoo: Path) -> Dict[str, str]:
    """The op's environment: inherited minus every ``REPRO_*`` variable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_DA_CACHE"] = str(zoo)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


@dataclass
class Op:
    """One isolated CLI invocation: its directories and, once run, its cost."""

    workdir: Path
    returncode: Optional[int] = None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    zoo_before: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    @property
    def zoo(self) -> Path:
        return self.workdir / "zoo"

    @property
    def cells(self) -> Path:
        return self.workdir / "cells"

    @property
    def results(self) -> Path:
        return self.workdir / "results"

    def stdout(self) -> str:
        return (self.workdir / "stdout.txt").read_text(errors="replace")

    def stderr(self) -> str:
        return (self.workdir / "stderr.txt").read_text(errors="replace")

    def _zoo_files(self) -> Dict[str, Tuple[int, int]]:
        return {
            p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in self.zoo.glob("*.npz")
        }

    def trained_models(self) -> List[Path]:
        """Zoo files the last :meth:`spawn` created or rewrote."""
        before = self.zoo_before
        return [self.zoo / name for name, stat in sorted(self._zoo_files().items())
                if before.get(name) != stat]

    def spawn(self, seed: int, cli: List[str], record: Optional[str] = None) -> int:
        """Run ``shim.py`` with ``cli``; records wall time, CPU and peak RSS."""
        argv = [sys.executable, str(SHIM), "--seed", str(seed)]
        if record is not None:
            argv += ["--record", str(self.workdir / "record.json"), "--targets", record]
        argv += ["--", *cli]
        self.zoo_before = self._zoo_files()
        with open(self.workdir / "stdout.txt", "wb") as out, open(
            self.workdir / "stderr.txt", "wb"
        ) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(self.zoo), stdout=out, stderr=err)
            _pid, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        return self.returncode

    def run_catalog(self, seed: int, jobs: int, record: Optional[str] = None) -> int:
        cli = ["run", "all", "--fast", "--jobs", str(jobs)]
        cli += ["--cache-dir", str(self.cells), "--results-dir", str(self.results)]
        return self.spawn(seed, cli, record)

    def record(self) -> dict:
        return json.loads((self.workdir / "record.json").read_text())

    def remove(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ------------------------------------------------------------------ fixture
def source_hash() -> str:
    """sha256 over every file under ``src/`` plus the op entry point."""
    digest = hashlib.sha256(f"format {FIXTURE_FORMAT}\n".encode())
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    for path in files + [SHIM]:
        if "__pycache__" in path.parts or path.suffix == ".pyc":
            continue
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


class SetupError(RuntimeError):
    pass


class Fixture:
    """Per-source-tree state, the checks every op passes, and the isolated op
    directories.

    ``zoo/`` is trained by one default-seed ``catalog_cold`` op, built only
    for workloads that start from it; ``seed-<n>/reference.json`` holds the
    result digests of the first correct op at seed ``n``, which every later
    op at that seed must reproduce.  Op directories live under
    ``run-<pid>/`` and are removed by :meth:`cleanup`.
    """

    def __init__(self, src_hash: str, numerics: str):
        self.root = STATE / f"fixture-{src_hash[:16]}"
        self.root.mkdir(parents=True, exist_ok=True)
        os.utime(self.root)
        fixtures = sorted(STATE.glob("fixture-*"), key=lambda p: p.stat().st_mtime, reverse=True)
        for stale in fixtures[FIXTURES_KEPT:]:
            shutil.rmtree(stale, ignore_errors=True)
        self.exact = numerics == GOLDEN_PLATFORM
        self.zoo = self.root / "zoo"
        self.ops_root = STATE / f"run-{os.getpid()}"
        self.ops_made = 0
        self.build_s = 0.0

    def new_op(self, zoo_from: Optional[Path] = None) -> Op:
        """A fresh op directory: empty cell cache, and a copy of ``zoo_from``
        as its zoo (an empty zoo when ``None``)."""
        op = Op(self.ops_root / f"op{self.ops_made:03d}")
        self.ops_made += 1
        shutil.rmtree(op.workdir, ignore_errors=True)
        op.workdir.mkdir(parents=True)
        if zoo_from is not None:
            shutil.copytree(zoo_from, op.zoo)
        else:
            op.zoo.mkdir()
        op.cells.mkdir()
        op.results.mkdir()
        return op

    def start_op(self, workload: Workload) -> Op:
        """A fresh op directory in the cache state ``workload`` starts from."""
        return self.new_op(self.zoo if workload.zoo else None)

    def cleanup(self) -> None:
        shutil.rmtree(self.ops_root, ignore_errors=True)

    def reference_path(self, seed: int) -> Path:
        return self.root / f"seed-{seed}" / "reference.json"

    def finish(self, op: Op, workload: Workload, seed: int) -> Op:
        """Check ``op`` (run at ``seed``); the first correct op at a seed
        becomes the reference for the later ones."""
        golden = dict(GOLDEN)
        if self.exact and seed == DEFAULT_SEED:
            golden.update(MODEL_GOLDEN)
        path = self.reference_path(seed)
        reference = json.loads(path.read_text()) if path.exists() else None
        op.problems = check_op(op, workload, golden, ZOO_GOLDEN if self.exact else {}, reference)
        if not op.problems and reference is None:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(op.digests, indent=1, sort_keys=True))
            tmp.replace(path)
        return op

    def ensure_zoo(self) -> Optional[Op]:
        """Train and check the zoo, unless this source tree has one.

        Returns the training op if it failed its checks; its zoo then serves
        this run only, and the next run trains again.
        """
        if self.zoo.exists():
            return None
        start = time.perf_counter()
        workload = WORKLOADS["catalog_cold"]
        op = self.start_op(workload)
        op.run_catalog(DEFAULT_SEED, JOBS)
        self.build_s = time.perf_counter() - start
        if self.finish(op, workload, DEFAULT_SEED).problems:
            self.zoo = op.zoo
            return op
        op.zoo.rename(self.zoo)
        op.remove()
        return None


# ------------------------------------------------------------------ measuring
def preflight(op: Op, seed: int) -> List[str]:
    """The set-up check: the CLI imports and lists the whole catalog."""
    if op.spawn(seed, ["list", "--json"]) != 0:
        return [f"`list --json` exited {op.returncode}"]
    names = [entry["name"] for entry in json.loads(op.stdout())]
    return [] if len(names) == EXPERIMENTS else [f"catalog lists {len(names)} experiments"]


def measure(workload: Workload, seed: int, seconds: float, fixture: Fixture):
    """The untraced closed loop; returns ``(ops, metrics)``."""
    setups = []
    ready = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        op = fixture.start_op(workload)
        problems = preflight(op, seed)
        setups.append(time.perf_counter() - start)
        if problems:
            raise SetupError(f"set-up check failed: {problems}")
        ready.append(op)
    n_ops = max(1, round(seconds / workload.nominal_op_s))
    ops = []
    self_start = resource.getrusage(resource.RUSAGE_SELF)
    for _ in range(n_ops):
        op = ready.pop(0) if ready else fixture.start_op(workload)
        op.run_catalog(seed, JOBS)
        ops.append(fixture.finish(op, workload, seed))
        op.remove()
    self_end = resource.getrusage(resource.RUSAGE_SELF)
    for op in ready:
        op.remove()
    own_cpu = (self_end.ru_utime - self_start.ru_utime) + (
        self_end.ru_stime - self_start.ru_stime
    )
    walls = [op.wall_s for op in ops]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(walls), "s"),
        "op_p50_ms": (1000.0 * statistics.median(walls), "ms"),
        "cpu_s": (sum(op.cpu_s for op in ops) + own_cpu, "s"),
        "peak_rss_mb": (max(op.rss_mb for op in ops), "MB"),
    }
    return ops, metrics


def span_counts(spans: List[list]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for name, *_ in spans:
        counts[name] = counts.get(name, 0) + 1
    return counts


def layer_metrics(record: dict) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced serial op."""
    spans = record["spans"]
    counts = span_counts(spans)
    telemetry = record["telemetry"]
    kernels = telemetry.get("kernels", {})
    queries = telemetry.get("attack_queries", {})
    events = telemetry.get("cells", [])
    extra = record["extra"]

    def outer(*names) -> float:
        return outer_seconds(spans, names)

    def calls(*names) -> int:
        return sum(counts.get(name, 0) for name in names)

    lookups = kernels.get("weight_cache_hits", 0) + kernels.get("weight_cache_misses", 0)
    gets = calls("store.get")
    metrics = {
        "zoo.train_s": (outer("zoo.train", "zoo.train_substitute"), "s"),
        "zoo.models_trained": (calls("zoo.save"), "count"),
        "zoo.load_s": (outer("zoo.load"), "s"),
        "nn.forward_calls": (calls("nn.forward"), "count"),
        "nn.forward_s": (outer("nn.forward"), "s"),
        "nn.backward_calls": (calls("nn.backward"), "count"),
        "nn.backward_s": (outer("nn.backward"), "s"),
        "nn.im2col_s": (outer("nn.im2col"), "s"),
        "nn.col2im_s": (outer("nn.col2im"), "s"),
        "nn.optim_step_s": (outer("nn.optim_step.sgd", "nn.optim_step.adam"), "s"),
        "datasets.generate_calls": (
            calls("datasets.generate_digits", "datasets.generate_objects"), "count"),
        "datasets.generate_s": (
            outer("datasets.generate_digits", "datasets.generate_objects"), "s"),
        "arith.gemm_s": (outer("arith.gemm.fused", "arith.gemm.fallback"), "s"),
        "arith.fused_calls": (kernels.get("fused_calls", 0), "count"),
        "arith.fallback_calls": (kernels.get("fallback_calls", 0), "count"),
        "arith.fused_macs": (kernels.get("fused_macs", 0), "count"),
        "arith.weight_cache_hit_ratio": (
            kernels.get("weight_cache_hits", 0) / lookups if lookups else 0.0, "ratio"),
        "attacks.perturb_s": (outer("attacks.generate"), "s"),
        "store.get_calls": (gets, "count"),
        "store.get_s": (outer("store.get"), "s"),
        "store.hit_ratio": (extra["store.get_hits"] / gets if gets else 0.0, "ratio"),
        "store.put_calls": (calls("store.put"), "count"),
        "store.put_s": (outer("store.put"), "s"),
        "store.bytes_written": (extra["store.bytes_written"], "bytes"),
        "pipeline.plan_s": (outer("pipeline.plan"), "s"),
        "pipeline.outlook_s": (outer("pipeline.outlook"), "s"),
        "pipeline.assemble_s": (outer("pipeline.assemble"), "s"),
        "pipeline.write_s": (outer("pipeline.write"), "s"),
        "pipeline.cells_computed": (
            sum(1 for e in events if e["status"] == "computed"), "count"),
        "pipeline.cells_hit": (sum(1 for e in events if e["status"] == "hit"), "count"),
        "cli.import_s": (outer("cli.import"), "s"),
    }
    for key in ("query_calls", "query_samples", "gradient_calls", "gradient_samples"):
        metrics[f"attacks.{key}"] = (queries.get(key, 0), "count")
    for key in ("mean_query_batch", "mean_gradient_batch"):
        metrics[f"attacks.{key}"] = (queries.get(key, 0.0), "samples/call")
    own = self_times(spans)
    layers = sorted({layer for layer, _m, _a in LAYER_TARGETS.values()} | {"cli"})
    by_layer = {layer: 0.0 for layer in layers}
    for (name, *_), seconds in zip(spans, own):
        if name != "op":
            by_layer[name.split(".", 1)[0]] += seconds
    for layer, seconds in by_layer.items():
        metrics[f"{layer}.self_s"] = (seconds, "s")
    wall = spans[0][2] - spans[0][1]
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unattributed_s"] = (own[0], "s")
    metrics["trace.spans"] = (len(spans), "count")
    return metrics


def attributed_seconds(metrics: Dict[str, Tuple[float, str]]) -> float:
    """Every layer's self time plus the unattributed rest of the traced op."""
    total = sum(value for name, (value, _unit) in metrics.items() if name.endswith(".self_s"))
    return total + metrics["trace.unattributed_s"][0]


def pool_metrics(record: dict, wall_s: float, jobs: int) -> Dict[str, Tuple[float, str]]:
    """Parallel-engine metrics of one ``--jobs N`` op (parent-side spans)."""
    telemetry = record["telemetry"]
    computed = [e for e in telemetry.get("cells", []) if e["status"] == "computed"]
    busy = sum(e["seconds"] for e in computed)
    faults = telemetry.get("faults", {})
    return {
        "parallel.warm_s": (outer_seconds(record["spans"], ["parallel.warm"]), "s"),
        "parallel.shards": (sum(e["shards"] for e in computed), "count"),
        "parallel.busy_s": (busy, "s"),
        "parallel.efficiency": (busy / (wall_s * jobs), "ratio"),
        "parallel.pool_respawns": (faults.get("pool_respawns", 0), "count"),
        "parallel.shard_retries": (faults.get("shard_retries", 0), "count"),
    }


def traced(workload: Workload, seed: int, fixture: Fixture):
    """The traced run; returns ``(ops, metrics)``.

    Op 1 runs serially (``--jobs 1``) with every layer wrapped.  With
    ``workload.serial_twin`` an untraced serial op follows, and
    ``trace.overhead_frac`` compares the two walls.  Two serial cold
    catalogs take 150-200 s, more than one run may, so ``catalog_cold`` has
    no twin: its untraced wall is estimated as the traced wall minus each
    span's wrapper cost, calibrated in the traced process after the op (the
    calibration's own time is left out of the traced wall).  The last op runs
    at ``--jobs 2`` from op 1's trained zoo with an empty cell cache and only
    the pre-fork warm-up wrapped, for the parallel layer (on
    ``catalog_cold`` its warm-up therefore excludes training, which is
    ``zoo.train_s``).
    """
    op = fixture.start_op(workload)
    op.run_catalog(seed, 1, record="all")
    ops = [fixture.finish(op, workload, seed)]
    if op.returncode != 0:
        return ops, {}
    record = op.record()
    spans = record["spans"]
    metrics = layer_metrics(record)
    counts = span_counts(spans)
    idle = [name for name in workload.exercised if not counts.get(name)]
    if idle:
        op.problems.append(f"wrappers recorded no calls: {', '.join(idle)}")
    nesting = nesting_problems(spans)
    if nesting:
        op.problems.append(f"{len(nesting)} spans badly nested, first: {nesting[0]}")
    traced_wall = op.wall_s - record["calibration_s"]
    if workload.serial_twin:
        twin = fixture.start_op(workload)
        twin.run_catalog(seed, 1)
        ops.append(fixture.finish(twin, workload, seed))
        twin.remove()
        twin_wall = twin.wall_s
    else:
        twin_wall = traced_wall - len(spans) * record["span_cost_s"]
    metrics["trace.twin_wall_s"] = (twin_wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / twin_wall - 1.0, "ratio")
    pool_workload = WORKLOADS["cells_cold"]
    pool = fixture.new_op(op.zoo)
    op.remove()
    pool.run_catalog(seed, JOBS, record="pool")
    ops.append(fixture.finish(pool, pool_workload, seed))
    if pool.returncode == 0:
        metrics.update(pool_metrics(pool.record(), pool.wall_s, JOBS))
    pool.remove()
    return ops, metrics


# ------------------------------------------------------------------ reporting
def environment(src_hash: str) -> Dict[str, str]:
    import numpy

    config = numpy.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
               if k in os.environ}
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": ",".join(f"{k}={v}" for k, v in threads.items()) or "default",
        "simd": ",".join(config["SIMD Extensions"]["found"]),
        "src": src_hash[:16],
    }


def numerics_platform(env: Dict[str, str]) -> str:
    """What decides the rounding of the model-based results."""
    return " ".join(f"{k}={env[k]}" for k in ("nproc", "numpy", "blas", "blas_threads", "simd"))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end `run all --fast` benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro.pipeline.runner  # noqa: F401  (canonical_result's import, before any timing)

    workload = WORKLOADS[args.workload]
    src_hash = source_hash()
    env = environment(src_hash)
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    fixture = Fixture(src_hash, numerics_platform(env))
    if not fixture.exact:
        print("# model-based and zoo golden digests not checked: recorded on "
              f"{GOLDEN_PLATFORM!r}")
    try:
        failed_build = fixture.ensure_zoo() if workload.zoo else None
        if failed_build is not None:
            print(f"# zoo-building op failed its checks; its zoo serves this run only")
        elif fixture.build_s:
            print(f"# zoo fixture built in {fixture.build_s:.1f}s -> "
                  f"{fixture.zoo.relative_to(ROOT)}")
        if args.trace:
            ops, metrics = traced(workload, args.seed, fixture)
        else:
            ops, metrics = measure(workload, args.seed, args.seconds, fixture)
        if failed_build is not None:
            ops.insert(0, failed_build)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        fixture.cleanup()
    failed = [op for op in ops if op.problems]
    for index, op in enumerate(ops):
        status = "ok" if not op.problems else "FAILED: " + "; ".join(op.problems)
        print(f"# op {index}: {op.wall_s:.3f}s wall, {op.cpu_s:.2f}s cpu, "
              f"{op.rss_mb:.0f} MB rss, {status}")
    print(f"# failed_frac: {len(failed) / len(ops):.4f} ({len(failed)}/{len(ops)} ops)")
    if not args.trace:
        tail = tail_percentile([op.wall_s for op in ops])
        if tail is not None:
            print(f"# op_tail_ms: p{tail[0]:.1f} = {1000 * tail[1]:.3f} ms (n={len(ops)})")
        else:
            print(f"# op_tail_ms: not reported, n={len(ops)} < 11 ops")
    elif "trace.wall_s" in metrics:
        print(f"# layer self times + trace.unattributed_s = {attributed_seconds(metrics):.6f} s "
              f"of {metrics['trace.wall_s'][0]:.6f} s traced wall")
    for name, (value, unit) in metrics.items():
        print(f"# {name}: {value:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
