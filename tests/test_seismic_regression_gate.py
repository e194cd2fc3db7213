"""Tests for ``benchmarks/check_seismic_regression.py``'s ``check()``.

The gate has two halves: committed per-cell throughput floors, and a
same-run check that every float32 cell reaches 0.8x its float64 sibling.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_GATE_PATH = (Path(__file__).resolve().parents[1] / "benchmarks"
              / "check_seismic_regression.py")


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_seismic_regression",
                                                  _GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASELINE = {"throughput": {
    "python|sponge20|float64": 1000.0,
    "python|sponge20|float32": 1000.0,
    "numba|sponge20|float64": 2000.0,
}}


def _results(**cells):
    measured = {
        "python|sponge20|float64": 1000.0,
        "python|sponge20|float32": 1200.0,
        "numba|sponge20|float64": 2000.0,
    }
    measured.update({key.replace("__", "|"): value
                     for key, value in cells.items()})
    return {"throughput": measured}


def test_passes_when_floors_and_ratios_hold(gate):
    assert gate.check(_results(), BASELINE, 0.25, require_all=True) == []


def test_floor_failure(gate):
    failures = gate.check(_results(python__sponge20__float64=700.0),
                          BASELINE, 0.25, require_all=False)
    assert len(failures) == 1
    assert failures[0].startswith("python|sponge20|float64:")
    assert "below 750" in failures[0]


def test_ratio_failure_against_same_run_float64(gate):
    # 800 clears its committed floor (750) but is only 0.4x the float64
    # cell of the same run.
    failures = gate.check(_results(python__sponge20__float64=2000.0,
                                   python__sponge20__float32=800.0),
                          BASELINE, 0.25, require_all=False)
    assert len(failures) == 1
    assert failures[0].startswith("python|sponge20|float32:")
    assert "0.40x" in failures[0]


def test_missing_cell_skips_without_require_all(gate, capsys):
    results = _results()
    del results["throughput"]["numba|sponge20|float64"]
    assert gate.check(results, BASELINE, 0.25, require_all=False) == []
    assert "skip baseline cell numba|sponge20|float64" in capsys.readouterr().out


def test_missing_cell_fails_with_require_all(gate):
    results = _results()
    del results["throughput"]["numba|sponge20|float64"]
    failures = gate.check(results, BASELINE, 0.25, require_all=True)
    assert failures == ["baseline cell numba|sponge20|float64 missing "
                        "from results"]
