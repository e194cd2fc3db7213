"""Tests of the benchmark's own accounting: spans, tails, errors, verdicts.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import compare, spec  # noqa: E402
from perfbench.spans import Tracer, covered  # noqa: E402
from perfbench.stats import OpLedger, tail, verdict  # noqa: E402


def _span(tracer, name, start, end, parent=None):
    index = tracer.open(name)
    tracer.spans[index].start = start
    tracer._stack.pop()
    tracer.spans[index].end = end
    tracer.spans[index].parent = parent
    if parent is not None:
        tracer.spans[parent].children.append(index)
    return index


# -- self time ------------------------------------------------------------
def test_self_time_is_span_minus_children():
    tracer = Tracer()
    root = _span(tracer, "op", 0.0, 10.0)
    _span(tracer, "a", 1.0, 4.0, parent=root)
    b = _span(tracer, "b", 5.0, 9.0, parent=root)
    _span(tracer, "a", 6.0, 7.0, parent=b)
    own = tracer.self_times()
    assert own["op"] == pytest.approx(3.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["a"] == pytest.approx(4.0)
    assert sum(own.values()) == pytest.approx(10.0)
    assert tracer.call_counts() == {"op": 1, "a": 2, "b": 1}


def test_self_time_counts_overlapping_children_once():
    assert covered([(1.0, 5.0), (3.0, 6.0), (8.0, 20.0)], 0.0, 10.0) == \
        pytest.approx(7.0)


def test_nested_program_time_moves_to_its_layer():
    tracer = Tracer()
    _span(tracer, "step", 0.0, 4.0)
    assert tracer.self_times({"step": 3.0})["step"] == pytest.approx(1.0)


def test_wrapped_calls_nest_and_unpatch_restores():
    module = types.ModuleType("perfbench_fake_layer")

    def inner():
        return 1

    def outer():
        return module.inner() + 1

    module.inner, module.outer = inner, outer
    sys.modules[module.__name__] = module
    try:
        tracer = Tracer()
        seen = []
        tracer.on_exit["inner"] = lambda t, args, kwargs, result: seen.append(
            t.inside("outer"))
        assert tracer.patch(f"{module.__name__}:outer", "outer")
        assert tracer.patch(f"{module.__name__}:inner", "inner")
        assert not tracer.patch(f"{module.__name__}:missing", "missing")
        assert module.outer() == 2
        tracer.unpatch()
        assert module.inner is inner and module.outer is outer
    finally:
        del sys.modules[module.__name__]
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", None), ("inner", 0)]
    assert seen == [True]


# -- tail percentile --------------------------------------------------------
def test_tail_keeps_ten_ops_beyond():
    result = tail([float(i) for i in range(100, 0, -1)])
    assert (result.value, result.percentile, result.ops, result.beyond) == \
        (90.0, 90.0, 100, 10)
    result = tail(list(range(1, 31)))
    assert (result.value, result.beyond) == (20, 10)
    assert result.percentile == pytest.approx(100 * 20 / 30)


def test_tail_with_too_few_ops_reports_the_slowest():
    result = tail([3.0, 1.0, 2.0])
    assert (result.value, result.percentile, result.beyond) == (3.0, 100.0, 0)
    with pytest.raises(ValueError):
        tail([])


# -- error rate -------------------------------------------------------------
def test_error_rate_counts_failed_against_attempted():
    ledger = OpLedger()
    ledger.record(0.1, 4, True)
    ledger.record(0.2, 4, False, "non-finite output")
    ledger.record(0.3, 4, True)
    ledger.fail_recorded("oracle mismatch")
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert ledger.error_rate == pytest.approx(2 / 3)
    assert ledger.latencies == [0.1, 0.3]
    assert ledger.samples == 8
    assert ledger.failures == ["non-finite output", "oracle mismatch"]
    ledger.fail_recorded("again")
    with pytest.raises(ValueError):
        ledger.fail_recorded("more failures than ops")
    assert OpLedger().error_rate == 0.0


# -- compare verdicts -------------------------------------------------------
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


def test_verdict_improved_needs_nine_tenths_wins_and_a_clear_gap():
    faster = [v * 0.8 for v in PARENT]
    assert verdict(PARENT, faster, 0.1, "lower")["verdict"] == "improved"
    result = verdict(PARENT, faster, 0.1, "higher")
    assert result["verdict"] == "worse"
    assert result["win_fraction"] == 0.0
    assert result["worsening"] == pytest.approx(0.2)


def test_verdict_unchanged_within_bound():
    nudged = [v * 1.03 for v in PARENT]
    result = verdict(PARENT, nudged, 0.1, "lower")
    assert result["verdict"] == "unchanged"
    assert result["parent"]["runs"] == result["change"]["runs"] == 10


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 150.0]
    assert verdict(PARENT, noisy, 0.1, "lower")["verdict"] == "unresolved"
    # ...unless every change run beats every parent run.
    wide_but_better = [10.0, 30.0, 12.0, 28.0, 14.0, 26.0, 16.0, 24.0, 18.0,
                       22.0]
    assert verdict(PARENT, wide_but_better, 0.1, "lower")["verdict"] == \
        "improved"
    mixed = [v * 0.95 for v in noisy]
    assert verdict(noisy, mixed, 0.1, "lower")["verdict"] == "unresolved"


def test_compare_pairs_by_seed_and_reads_only_untraced_runs(tmp_path):
    for side, scale in (("parent", 1.0), ("change", 1.5)):
        directory = tmp_path / side
        directory.mkdir()
        for seed, value in enumerate(PARENT):
            for trace in (0, 1):
                (directory / f"train-{seed}-{trace}.json").write_text(
                    json.dumps({"workload": "train", "seed": seed,
                                "trace": trace, "metrics": {
                                    "op_ms_p50": {"value": value * scale,
                                                  "unit": "ms"}}}))
    rows = compare.compare(compare.load(tmp_path / "parent"),
                           compare.load(tmp_path / "change"))
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == \
        [("train", "op_ms_p50", "worse")]
    assert "worse (bound 25%)" in compare.render(rows)
    assert compare.main([str(tmp_path / "parent"),
                         str(tmp_path / "change")]) == 1


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == json.loads(json.dumps(spec.SPEC))
