"""The repository benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload datagen --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload train --seed 1 --seconds 12 --trace 1
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

``--trace 0`` measures the end-to-end metrics with nothing installed in the
program.  ``--trace 1`` measures the first half of the time untraced and the
second half with spans around every layer call and the program's telemetry
in ``summary`` mode, and prints the per-layer metrics; the gap between the
halves' median op latencies is ``trace.overhead_ratio``.

Human-readable lines go first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--out PATH``
also writes the full result (metrics, op counts, tail percentile, what
decided the speed, the span profile and telemetry snapshot) for
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pin_environment(blas_threads: int) -> Dict[str, object]:
    """Fix thread counts and drop ambient ``QUGEO_*`` settings.

    Must run before numpy is imported.  Load comes from this one process;
    OpenMP may use ``nproc`` threads and BLAS ``blas_threads``.
    """
    os.environ["OMP_NUM_THREADS"] = str(_nproc())
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    dropped = sorted(k for k in os.environ if k.startswith("QUGEO_"))
    for key in dropped:
        del os.environ[key]
    return {"blas_threads": blas_threads, "dropped_env": dropped}


def _git_sha() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def host_facts(pinned: Dict[str, object]) -> Dict[str, object]:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": _nproc(), "cpu_count": os.cpu_count(),
            "blas_threads": pinned["blas_threads"],
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "config": blas.get("openblas configuration")},
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(), "git_sha": _git_sha(),
            "dropped_env": pinned["dropped_env"]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds: float, ledger, tracer=None) -> float:
    """Run ops until ``seconds`` have passed; returns the wall time."""
    start = perf_counter()
    deadline = start + seconds
    for op in workload.ops():
        began = perf_counter()
        index = tracer.open("op") if tracer is not None else None
        try:
            failure = op.run()
        except Exception as exc:  # an op that raises counts as failed
            failure = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.close(index)
        ended = perf_counter()
        ledger.record(ended - began, op.samples, failure is None,
                      failure or "")
        if ended >= deadline and workload.ready():
            break
    return perf_counter() - start


def layer_metrics(workload_name: str, tracer, telemetry: Dict, wall: float,
                  untraced: List[float], traced: List[float]
                  ) -> Dict[str, float]:
    """Per-layer metrics of the traced half.

    The program's own telemetry times the propagator phases inside
    ``seismic.propagate`` and the adjoint passes inside
    ``core.training.step``; those count as children of the span they ran
    in.  Self times plus ``trace.unattributed_s`` add up to the wall time.
    """
    timers = telemetry.get("timers", {})
    spans = telemetry.get("spans", {})
    counters = telemetry.get("counters", {})

    def timer(name):
        return float(timers.get(name, {}).get("total", 0.0))

    def span(leaf):
        return float(sum(stat["total"] for path, stat in spans.items()
                         if path.split("/")[-1] == leaf))

    phases = {phase: timer(f"propagator.{phase}")
              for phase in ("laplacian", "update", "inject", "boundary",
                            "record")}
    autodiff = {"forward": span("gradients.forward"),
                "backward": span("gradients.backward"),
                "per_sample": span("gradients.per_sample")}
    own = tracer.self_times({"seismic.propagate": sum(phases.values()),
                             "core.training.step": sum(autodiff.values())})
    calls = tracer.call_counts()
    totals = tracer.totals()
    counts = tracer.counts
    op_self = own.get("op", 0.0)

    metrics: Dict[str, float] = {
        "seismic.propagate.self_s": own.get("seismic.propagate", 0.0),
        "seismic.propagate.calls": calls.get("seismic.propagate", 0),
        "seismic.wavefield_steps": counts.get("seismic.wavefield_steps", 0),
        "seismic.flops_computed": counts.get("seismic.flops_computed", 0),
        "seismic.bytes_computed": counts.get("seismic.bytes_computed", 0),
        "data.build_chunk.self_s": own.get("data.build_chunk", 0.0),
        "data.build_chunk.calls": calls.get("data.build_chunk", 0),
        "core.data_scaling.scale.self_s": own.get("core.data_scaling.scale",
                                                  0.0),
        "core.data_scaling.scale.calls": calls.get("core.data_scaling.scale",
                                                   0),
        "quantum.autodiff.forward_s": autodiff["forward"],
        "quantum.autodiff.backward_s": autodiff["backward"],
        "quantum.autodiff.per_sample_s": autodiff["per_sample"],
        "quantum.autodiff.samples": counters.get("gradients.batched.samples",
                                                 0),
        "core.training.step.self_s": own.get("core.training.step", 0.0),
        "core.training.steps": calls.get("core.training.step", 0),
        "core.training.gather_s": own.get("core.training.gather", 0.0),
        "core.training.eval_s": own.get("core.training.eval", 0.0),
        "core.training.overhead_s": op_self if workload_name == "train"
        else 0.0,
        "quantum.predict_batch.self_s": own.get("quantum.predict_batch", 0.0),
        "quantum.circuit_runs": counts.get("quantum.circuit_runs", 0),
        "quantum.gate_applications_computed": counts.get(
            "quantum.gate_applications_computed", 0),
        "quantum.amplitude_updates_computed": counts.get(
            "quantum.amplitude_updates_computed", 0),
        "nn.optim.step_s": own.get("nn.optim.step", 0.0),
        "nn.optim.zero_grad_s": own.get("nn.optim.zero_grad", 0.0),
        "nn.optim.steps": calls.get("nn.optim.step", 0),
        "metrics.ssim_s": own.get("metrics.ssim", 0.0),
        "metrics.ssim.calls": calls.get("metrics.ssim", 0),
        "trace.wall_s": wall,
    }
    for phase, seconds in phases.items():
        metrics[f"seismic.{phase}_s"] = seconds
    propagate_total = totals.get("seismic.propagate", 0.0)
    metrics["seismic.wavefield_steps_per_s"] = (
        metrics["seismic.wavefield_steps"] / propagate_total
        if propagate_total else 0.0)
    metrics["quantum.autodiff.backward_forward_ratio"] = (
        autodiff["backward"] / autodiff["forward"] if autodiff["forward"]
        else 0.0)
    hits = counters.get("backend.einsum.gate_tensors.hits", 0)
    misses = counters.get("backend.einsum.gate_tensors.misses", 0)
    metrics["backends.einsum.gate_tensor_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    attributed = sum(seconds for name, seconds in own.items() if name != "op")
    attributed += sum(phases.values()) + sum(autodiff.values())
    attributed += metrics["core.training.overhead_s"]
    metrics["trace.unattributed_s"] = wall - attributed
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
        if traced and untraced else 0.0)
    return metrics


def _format(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{value:.0f}"
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full result JSON to this path")
    parser.add_argument("--write-spec", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT))
    from perfbench import spec

    if args.write_spec:
        print(f"wrote {spec.write_spec()}")
        return 0
    if args.workload not in spec.workload_names():
        parser.error(f"--workload must be one of {spec.workload_names()}")
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS

    pinned = _pin_environment(_nproc() if args.workload in
                              spec.NPROC_BLAS_WORKLOADS else 1)
    sys.path.insert(0, str(SRC))
    started = perf_counter()
    from perfbench import workloads
    import_s = perf_counter() - started
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench.spans import Tracer
    from perfbench.stats import OpLedger, tail
    from repro.telemetry import configure

    workload = workloads.WORKLOADS[args.workload]()
    setups = []
    for _ in range(SETUP_REPEATS):
        began = perf_counter()
        workload.setup(args.seed)
        setups.append(perf_counter() - began)
    setup_s = import_s + statistics.median(setups)

    ledger = OpLedger()
    result: Dict[str, object] = {"workload": args.workload, "seed": args.seed,
                                 "seconds": seconds, "trace": args.trace}
    if args.trace:
        wall_untraced = measure(workload, seconds / 2, ledger)
        untraced = list(ledger.latencies)
        tracer = Tracer()
        tracer.on_exit.update(workloads.COUNT_HOOKS)
        patched = [target for target, name in workloads.TRACE_POINTS
                   if tracer.patch(target, name)]
        telemetry = configure("summary", reset=True)
        try:
            wall = measure(workload, seconds / 2, ledger, tracer)
        finally:
            tracer.unpatch()
            snapshot = telemetry.snapshot()
            configure("off", reset=True)
        traced = ledger.latencies[len(untraced):]
        metrics = layer_metrics(args.workload, tracer, snapshot, wall,
                                untraced, traced)
        declared = spec.PER_LAYER
        result.update(untraced_wall_s=wall_untraced, patched=patched,
                      telemetry=snapshot,
                      profile={"self_s": tracer.self_times(),
                               "calls": tracer.call_counts()})
    else:
        wall = measure(workload, seconds, ledger)
        metrics = {}
    if not ledger.latencies:
        print(f"perfbench: no op succeeded: {ledger.failures[:3]}",
              file=sys.stderr)
        return 1
    for failure in workload.verify():
        ledger.fail_recorded(failure)

    if not args.trace:
        op_tail = tail(ledger.latencies)
        metrics = {
            "setup_s": setup_s,
            "throughput_samples_per_s": ledger.samples / wall,
            "op_ms_p50": 1e3 * statistics.median(ledger.latencies),
            "op_ms_tail": 1e3 * op_tail.value,
            "peak_rss_mb": peak_rss_mb(),
        }
        declared = spec.END_TO_END
        result["tail"] = {"percentile": op_tail.percentile,
                          "ops": op_tail.ops, "beyond": op_tail.beyond}
    units = {m["name"]: m["unit"] for m in declared}
    metrics = {name: metrics[name] for name in units}
    test_ssim = workload.quality()
    result.update(setup_runs_s=setups, import_s=import_s, wall_s=wall,
                  test_ssim=test_ssim,
                  error_rate=ledger.error_rate, failures=ledger.failures,
                  context={**workload.context(), "seed": args.seed,
                           "host": host_facts(pinned)})

    print(f"perfbench {args.workload} seed={args.seed} seconds={seconds:g} "
          f"trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:<42} {_format(value):>16} {units[name]}")
    if "tail" in result:
        print(f"  op_ms_tail is p{result['tail']['percentile']:.1f} of "
              f"{result['tail']['ops']} ops ({result['tail']['beyond']} "
              f"beyond)")
    if test_ssim is not None:
        print(f"  test_ssim {test_ssim:.6f} (mean over the trio)")
    print(f"  error_rate {ledger.error_rate:g} ({ledger.failed} of "
          f"{ledger.attempted} ops failed)")
    for failure in ledger.failures[:5]:
        print(f"  failed: {failure}")
    print("context " + json.dumps(result["context"], sort_keys=True))

    summary = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
               "failed": ledger.failed,
               "metrics": {name: {"value": value, "unit": units[name]}
                           for name, value in metrics.items()}}
    if args.out:
        result.update(summary)
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(result, indent=2, default=float)
                                  + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
