"""Fast self-tests of the end-to-end benchmark's own arithmetic and checks.

Run with ``python -m pytest e2ebench -q`` (seconds; the smoke op runs one
model-free experiment through the real CLI).
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import shim  # noqa: E402


# ------------------------------------------------------------ tail percentile
def test_tail_needs_eleven_samples():
    assert bench.tail_percentile([1.0] * 10) is None


@pytest.mark.parametrize("n, percentile", [(11, 100 / 11), (100, 90.0), (1000, 99.0)])
def test_tail_leaves_exactly_ten_samples_beyond(n, percentile):
    samples = [float(v) for v in range(n, 0, -1)]  # unsorted on purpose
    pct, value = bench.tail_percentile(samples)
    assert pct == pytest.approx(percentile)
    assert sum(1 for v in samples if v > value) == 10


# ------------------------------------------------------------ self times
SPANS = [
    ["op", 0.0, 10.0, -1],
    ["nn.forward", 1.0, 4.0, 0],
    ["nn.forward", 1.5, 2.0, 1],
    ["nn.im2col", 2.0, 3.0, 1],
    ["store.get", 5.0, 6.0, 0],
]


def test_self_time_subtracts_direct_children_only():
    assert bench.self_times(SPANS) == pytest.approx([6.0, 1.5, 0.5, 1.0, 1.0])
    assert sum(bench.self_times(SPANS)) == pytest.approx(10.0)


def test_nesting_check_accepts_a_well_nested_trace():
    assert bench.nesting_problems(SPANS) == []


@pytest.mark.parametrize(
    "span, problem",
    [
        (["nn.im2col", 2.0, None, 1], "never closed"),
        (["nn.im2col", 3.5, 4.5, 1], "is not inside its parent nn.forward"),
        (["nn.im2col", 1.8, 3.0, 1], "overlaps an earlier sibling"),
    ],
)
def test_nesting_check_flags_spans_that_break_self_times(span, problem):
    spans = [list(s) for s in SPANS]
    spans[3] = span
    problems = bench.nesting_problems(spans)
    assert len(problems) == 1 and problem in problems[0]


def test_outer_seconds_does_not_double_count_nested_calls():
    assert bench.outer_seconds(SPANS, ["nn.forward"]) == pytest.approx(3.0)
    assert bench.outer_seconds(SPANS, ["nn.forward", "nn.im2col"]) == pytest.approx(3.0)
    assert bench.outer_seconds(SPANS, ["nn.im2col", "store.get"]) == pytest.approx(2.0)


# ------------------------------------------------------------ output check
def _result(rows, elapsed=1.0):
    return json.dumps(
        {"name": "x", "rows": rows, "elapsed_seconds": elapsed, "telemetry": {"jobs": 2}}
    )


def test_compare_is_nan_safe_and_ignores_observability_fields():
    a, b = _result([[float("nan")]], 1.0), _result([[float("nan")]], 7.5)
    assert json.loads(a) != json.loads(b)  # the trap: NaN != NaN
    assert bench.canonical_result(a) == bench.canonical_result(b)
    assert bench.canonical_result(a) != bench.canonical_result(_result([[0.5]]))


def _fake_op(tmp_path, tables, computed=bench.CELLS):
    op = bench.Op(tmp_path)
    op.results.mkdir(parents=True)
    op.zoo.mkdir()
    for name, table in tables.items():
        (op.results / f"{name}.json").write_text(_result([[table]]))
        (op.results / f"{name}.txt").write_text(table + "\n")
    (op.results / "x+1.manifest.json").write_text("{}")  # ignored
    hit = bench.CELLS - computed
    (op.workdir / "stdout.txt").write_text(
        f"# run summary: {bench.CELLS} cells ({hit} cached, {computed} computed, 0.0s)\n"
    )
    op.returncode = 0
    return op


def test_edited_table_cell_fails_the_op_and_names_the_experiment(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "EXPERIMENTS", 2)
    cells = bench.WORKLOADS["cells_cold"]
    reference = bench.result_digests(_fake_op(tmp_path / "a", {"t1": "1%", "t2": "2%"}).results)
    same = _fake_op(tmp_path / "b", {"t1": "1%", "t2": "2%"})
    assert bench.check_op(same, cells, {}, {}, reference) == []
    edited = _fake_op(tmp_path / "c", {"t1": "1%", "t2": "3%"})
    assert bench.check_op(edited, cells, {}, {}, reference) == [
        "t2: output differs from the other ops at this seed"
    ]
    assert bench.check_op(edited, cells, reference, {}, None) == [
        "t2: output differs from its golden digest"
    ]


def test_wrong_cache_state_fails_the_op(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "EXPERIMENTS", 1)
    op = _fake_op(tmp_path, {"t1": "1%"}, computed=0)
    problems = bench.check_op(op, bench.WORKLOADS["cells_cold"], {}, {}, None)
    assert problems == ["cells total/hit/computed 63/63/0, expected 63/0/63"]


def test_trained_model_with_other_weights_fails_the_op(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "EXPERIMENTS", 1)
    op = _fake_op(tmp_path, {"t1": "1%"})
    op.zoo_before = op._zoo_files()
    weights = {f"model{i}": f"weights {i}".encode() for i in range(bench.MODELS)}
    for name, data in weights.items():
        (op.zoo / f"{name}_fast_0123456789.npz").write_bytes(data)
    zoo_golden = {f"{name}_fast": hashlib.sha256(data).hexdigest()
                  for name, data in weights.items()}
    cold = bench.WORKLOADS["catalog_cold"]
    assert bench.check_op(op, cold, {}, zoo_golden, None) == []
    (op.zoo / "model2_fast_0123456789.npz").write_bytes(b"other weights")
    assert bench.check_op(op, cold, {}, zoo_golden, None) == [
        "model model2_fast: weights differ from its golden digest"
    ]


# ------------------------------------------------------------ seeds
def test_default_seed_keeps_the_catalog_and_others_rewrite_seeded_fields():
    from repro.pipeline import get_experiment

    fig04 = get_experiment("fig04_approx_convolution")
    table02 = get_experiment("table02_transferability_mnist")
    assert shim.seeded_spec(fig04, shim.DEFAULT_SEED) is fig04
    assert shim.seeded_spec(fig04, 3).params["seed"] == 3
    seeded = {e.label: e.params.get("seed") for e in shim.seeded_spec(table02, 3).attacks}
    assert seeded["PGD"] == 3 and seeded["FGSM"] is None
    for name in bench.GOLDEN:  # why the golden digests hold for every seed
        spec = get_experiment(name)
        assert shim.seeded_spec(spec, 3) is spec


def test_every_experiment_has_a_default_seed_golden_digest():
    from repro.pipeline import list_experiments

    assert not set(bench.GOLDEN) & set(bench.MODEL_GOLDEN)
    assert set(bench.GOLDEN) | set(bench.MODEL_GOLDEN) == set(list_experiments())
    assert len(bench.ZOO_GOLDEN) == bench.MODELS


# ------------------------------------------------------------ smoke op
def test_smoke_op_is_golden_and_its_trace_adds_up(tmp_path):
    op = bench.Op(tmp_path)
    for directory in (op.zoo, op.cells, op.results):
        directory.mkdir()
    cli = ["run", "fig13_bfloat16_noise", "--fast", "--jobs", "1"]
    cli += ["--cache-dir", str(op.cells), "--results-dir", str(op.results)]
    assert op.spawn(7, cli, record="all") == 0, op.stderr()
    digests = bench.result_digests(op.results)
    assert digests == {"fig13_bfloat16_noise": bench.GOLDEN["fig13_bfloat16_noise"]}
    record = op.record()
    counts = bench.span_counts(record["spans"])
    assert counts["cli.import"] == 1 and counts["pipeline.run"] == 1
    assert counts["store.put"] == 2 and record["extra"]["store.bytes_written"] > 0
    assert bench.nesting_problems(record["spans"]) == []
    assert 0 < record["span_cost_s"] < 1e-4
    metrics = bench.layer_metrics(record)
    total = bench.attributed_seconds(metrics)
    assert math.isclose(total, metrics["trace.wall_s"][0], rel_tol=1e-9)
