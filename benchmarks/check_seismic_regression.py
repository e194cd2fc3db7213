"""Gate — propagator throughput must not regress past a committed baseline.

Compares the ``throughput`` section of a ``bench_seismic.py --quick --json``
result against ``benchmarks/baselines/bench_seismic_quick.json`` and exits
non-zero when any shared ``kernel|boundary|dtype`` cell drops more than
``--max-drop`` (default 25%) below its baseline wavefield-steps/s.

The baseline is deliberately conservative (well under a healthy runner's
measurement) so ordinary CI noise passes while a real hot-loop regression —
an accidental copy, a de-vectorised stencil, a kernel silently degrading to
a slower path — fails the job.  Cells present in the baseline but missing
from the results are reported and fail the gate only with ``--require-all``
(the CI job with numba installed uses it; local runs without numba lack the
``numba|...`` cells).

A second, host-independent check compares cells of the same run: every
``kernel|boundary|float32`` cell must reach at least
``MIN_FLOAT32_RATIO`` (0.8x) of its ``kernel|boundary|float64`` sibling.
Reduced precision halves the memory traffic, so a float32 cell falling
behind float64 is a defect in the float32 path (a slower stencil, a
denormal stall, contending BLAS thread pools) on any host, however fast.

Usage::

    PYTHONPATH=src python benchmarks/bench_seismic.py --quick --json out.json
    python benchmarks/check_seismic_regression.py out.json --require-all
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

DEFAULT_BASELINE = (Path(__file__).parent / "baselines"
                    / "bench_seismic_quick.json")

#: Smallest tolerated float32 / float64 throughput ratio within one run.
MIN_FLOAT32_RATIO = 0.8


def check(results: dict, baseline: dict, max_drop: float,
          require_all: bool) -> list:
    """Return a list of failure messages (empty = gate passes)."""
    failures = []
    measured = results.get("throughput") or {}
    expected = baseline.get("throughput") or {}
    if not expected:
        return ["baseline has no throughput section"]
    shared = sorted(set(measured) & set(expected))
    missing = sorted(set(expected) - set(measured))
    if not shared:
        failures.append("no throughput cells shared with the baseline")
    for key in shared:
        floor = expected[key] * (1.0 - max_drop)
        if measured[key] < floor:
            failures.append(
                f"{key}: {measured[key]:,.0f} wavefield-steps/s is below "
                f"{floor:,.0f} (baseline {expected[key]:,.0f} "
                f"- {max_drop:.0%} allowance)")
        else:
            print(f"ok {key}: {measured[key]:,.0f} >= {floor:,.0f} "
                  f"wavefield-steps/s")
    for key in missing:
        message = f"baseline cell {key} missing from results"
        if require_all:
            failures.append(message)
        else:
            print(f"skip {message}")
    for key in sorted(measured):
        if not key.endswith("|float32"):
            continue
        sibling = key[:-len("float32")] + "float64"
        if sibling not in measured:
            continue
        ratio = measured[key] / measured[sibling] if measured[sibling] else 0.0
        if ratio < MIN_FLOAT32_RATIO:
            failures.append(
                f"{key}: {measured[key]:,.0f} wavefield-steps/s is "
                f"{ratio:.2f}x its float64 sibling's {measured[sibling]:,.0f} "
                f"(same run; needs >= {MIN_FLOAT32_RATIO:.2f}x)")
        else:
            print(f"ok {key}: {ratio:.2f}x its float64 sibling")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", help="bench_seismic.py --json output")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="committed baseline JSON (default: "
                             "benchmarks/baselines/bench_seismic_quick.json)")
    parser.add_argument("--max-drop", type=float, default=0.25,
                        help="largest tolerated fractional throughput drop "
                             "below baseline (default 0.25)")
    parser.add_argument("--require-all", action="store_true",
                        help="fail when a baseline cell is missing from the "
                             "results (use where every kernel is installed)")
    args = parser.parse_args()

    results = json.loads(Path(args.results).read_text())
    baseline = json.loads(Path(args.baseline).read_text())
    failures = check(results, baseline, args.max_drop, args.require_all)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
