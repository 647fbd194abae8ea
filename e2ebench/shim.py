"""One benchmark operation: ``python -m repro <args>`` with a seeded catalog.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python e2ebench/shim.py --seed 3 -- run all --fast --jobs 2 ...
    python e2ebench/shim.py --seed 3 --record op.json -- run all --fast --jobs 1 ...

Without ``--record`` this is exactly the CLI (``repro.cli.main``) after the
catalog has been re-seeded, so an untimed op measures what a user runs.

With ``--record PATH`` the benchmark's tracer wraps the public functions of
each layer (see :data:`LAYER_TARGETS`) from the outside -- nothing under
``src/`` is instrumented -- and writes every span ``[name, start, end,
parent]`` plus the run telemetry and the calibrated cost of one span
(:func:`span_cost`) to ``PATH`` when the CLI returns.  Spans are kept in
memory until then.  With ``--targets all`` the program should run
serially (``--jobs 1``) so that every call happens in this process;
``--targets pool`` wraps only the parent-side pre-fork warm-up of a
``--jobs N`` run.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: the seed that reproduces the shipped catalog unchanged
DEFAULT_SEED = 0

#: span name -> (layer, module path, attribute path).  Names imported by
#: value are patched where they were imported (``repro.experiments.zoo``).
LAYER_TARGETS = {
    "zoo.train": ("zoo", "repro.experiments.zoo", "train_classifier"),
    "zoo.train_substitute": ("zoo", "repro.core.substitute", "train_substitute"),
    "zoo.load": ("zoo", "repro.nn.network", "Sequential.load"),
    "zoo.save": ("zoo", "repro.nn.network", "Sequential.save"),
    "nn.forward": ("nn", "repro.nn.network", "Sequential.forward"),
    "nn.backward": ("nn", "repro.nn.network", "Sequential.backward"),
    "nn.im2col": ("nn", "repro.nn.functional", "im2col"),
    "nn.col2im": ("nn", "repro.nn.functional", "col2im"),
    "nn.optim_step.sgd": ("nn", "repro.nn.optim", "SGD.step"),
    "nn.optim_step.adam": ("nn", "repro.nn.optim", "Adam.step"),
    "datasets.generate_digits": ("datasets", "repro.experiments.zoo", "generate_digits"),
    "datasets.generate_objects": ("datasets", "repro.experiments.zoo", "generate_objects"),
    "arith.gemm.fused": ("arith", "repro.arith.kernels", "FusedLutGemmKernel.__call__"),
    "arith.gemm.fallback": ("arith", "repro.arith.kernels", "FallbackGemmKernel.__call__"),
    "attacks.generate": ("attacks", "repro.attacks.base", "Attack.generate"),
    "parallel.warm": ("parallel", "repro.pipeline.cells", "CellKind.warm"),
    "store.get": ("store", "repro.store.local", "ArtifactStore.get"),
    "store.put": ("store", "repro.store.local", "ArtifactStore.put"),
    "pipeline.run": ("pipeline", "repro.pipeline.runner", "Runner.run_many"),
    "pipeline.plan": ("pipeline", "repro.parallel.plan", "build_plan"),
    "pipeline.outlook": ("pipeline", "repro.parallel.plan", "cache_outlook"),
    "pipeline.assemble": ("pipeline", "repro.pipeline.runner", "Runner._assemble"),
    "pipeline.write": ("pipeline", "repro.pipeline.runner", "ExperimentResult.write"),
}


def seeded_spec(spec, seed: int):
    """``spec`` with its seeded fields rewritten for ``seed``.

    The default seed returns the catalog spec itself.  Any other seed sets
    the spec's own ``params["seed"]`` (where it has one) and an explicit
    ``seed`` on every attack that accepts one, via ``ExperimentSpec.replace``.
    Specs with neither are returned unchanged.
    """
    if seed == DEFAULT_SEED:
        return spec
    from repro.pipeline.cells import _attack_accepts_seed
    from repro.pipeline.spec import AttackGridEntry

    changes: Dict[str, Any] = {}
    if "seed" in spec.params:
        changes["params"] = {**spec.params, "seed": seed}
    attacks = tuple(
        AttackGridEntry(entry.label, entry.attack, {**entry.params, "seed": seed})
        if _attack_accepts_seed(entry.attack)
        else entry
        for entry in spec.attacks
    )
    if attacks != spec.attacks:
        changes["attacks"] = attacks
    return spec.replace(**changes) if changes else spec


def reseed_catalog(seed: int) -> None:
    """Re-register every catalog spec that ``seed`` changes."""
    from repro.pipeline import EXPERIMENTS, get_experiment, list_experiments

    for name in list_experiments():
        spec = get_experiment(name)
        new = seeded_spec(spec, seed)
        if new is not spec:
            EXPERIMENTS.register(
                name,
                lambda new=new: new,
                metadata=EXPERIMENTS.metadata(name),
                overwrite=True,
            )


class Tracer:
    """In-memory span recorder for one single-threaded process.

    Spans are ``[name, start, end, parent]`` with ``parent`` an index into
    :attr:`spans` (``-1`` for the root).  Index 0 is the root span covering
    the whole operation.
    """

    def __init__(self) -> None:
        self.spans: List[list] = [["op", time.perf_counter(), None, -1]]
        self._stack = [0]
        self.extra: Dict[str, float] = {"store.bytes_written": 0, "store.get_hits": 0}

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1]])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, function: Callable) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    def finish(self) -> None:
        self.spans[0][2] = time.perf_counter()


def span_cost(calls: int = 20000, repeats: int = 3) -> float:
    """Seconds one traced call adds to the call it wraps: the best of
    ``repeats`` timings of ``calls`` wrapped no-op calls, less the bare ones."""

    def noop() -> None:
        return None

    best = float("inf")
    for _ in range(repeats):
        tracer = Tracer()
        wrapped = tracer.wrap("calibrate", noop)
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        middle = time.perf_counter()
        for _ in range(calls):
            noop()
        best = min(best, ((middle - start) - (time.perf_counter() - middle)) / calls)
    return best


def _resolve(module_name: str, attr_path: str):
    import importlib

    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{module_name}.{attr_path} not found")
    return owner, attr


def install(tracer: Tracer, names) -> None:
    """Wrap each named target of :data:`LAYER_TARGETS` with ``tracer``."""
    for name in names:
        _layer, module_name, attr_path = LAYER_TARGETS[name]
        owner, attr = _resolve(module_name, attr_path)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original)
        if name in _COUNTERS:
            wrapped = _COUNTERS[name](tracer, wrapped)
        setattr(owner, attr, wrapped)


def _count_hits(tracer: Tracer, get: Callable) -> Callable:
    """Count the store reads that found an artifact in ``store.get_hits``."""

    @functools.wraps(get)
    def counted(*args, **kwargs):
        value = get(*args, **kwargs)
        tracer.extra["store.get_hits"] += value is not None
        return value

    return counted


def _count_bytes(tracer: Tracer, put: Callable) -> Callable:
    """Add the size of each published artifact to ``store.bytes_written``."""

    @functools.wraps(put)
    def counted(store, namespace, digest, *args, **kwargs):
        result = put(store, namespace, digest, *args, **kwargs)
        for path in (store.path(namespace, digest), store.meta_path(namespace, digest)):
            if path.exists():
                tracer.extra["store.bytes_written"] += path.stat().st_size
        return result

    return counted


_COUNTERS = {"store.get": _count_hits, "store.put": _count_bytes}

#: ``--targets`` choices: the serial per-layer trace, or only the parallel
#: engine's parent-side warm-up for a ``--jobs N`` op
TARGET_SETS = {"all": tuple(LAYER_TARGETS), "pool": ("parallel.warm",)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--record", default=None, help="trace the op, write spans here")
    parser.add_argument("--targets", choices=sorted(TARGET_SETS), default="all")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- then the repro CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    tracer = Tracer() if args.record else None
    index = tracer.open("cli.import") if tracer else None
    import repro.cli

    if tracer:
        tracer.close(index)
    reseed_catalog(args.seed)
    telemetry: Dict[str, Any] = {}
    if tracer:
        install(tracer, TARGET_SETS[args.targets])
        from repro.pipeline.runner import Runner

        run_many = Runner.run_many

        @functools.wraps(run_many)
        def capture(runner, *a, **kw):
            try:
                return run_many(runner, *a, **kw)
            finally:
                telemetry.update(runner.telemetry.snapshot())

        Runner.run_many = capture
    code = repro.cli.main(cli_args)
    if tracer:
        tracer.finish()
        start = time.perf_counter()
        cost = span_cost()
        record = {"spans": tracer.spans, "extra": tracer.extra, "telemetry": telemetry,
                  "span_cost_s": cost, "calibration_s": time.perf_counter() - start}
        Path(args.record).write_text(json.dumps(record, separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main())
