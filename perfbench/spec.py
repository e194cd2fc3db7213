"""The benchmark's definition: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is generated from :data:`SPEC`
(``python3 perfbench/run.py --write-spec``), so the file and the code that
prints the metrics cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Seconds one run measures (the driver passes it back as ``--seconds``).
RUN_SECONDS = 25

#: Workloads whose BLAS runs ``nproc`` threads, as the program ships.  The
#: float32 PML slowdown lives in a two-thread sgemm, so that workload keeps
#: them.  The others run single-threaded BLAS: their matrices are small, and
#: under CPU contention a second BLAS thread made their ops 1.5-50x slower.
NPROC_BLAS_WORKLOADS = ("datagen-pml-f32",)

WORKLOADS: List[Dict[str, str]] = [
    {"name": "datagen",
     "why": "cold serial FlatVelA generation plus Q-D-FW scaling on a "
            "cache-resident 32x32 grid: time is in seismic and "
            "core.data_scaling, no quantum work"},
    {"name": "datagen-pml-f32",
     "why": "70x70 maps through ForwardModel under float32 with a padded "
            "PML: the float32 Laplacian path on a grid larger than the cache"},
    {"name": "train",
     "why": "Table 1 trio (0/1/2 QuBatch qubits) trained on Q-D-FW data: "
            "circuit forward, adjoint backward and Adam, no propagator"},
    {"name": "predict",
     "why": "forward-only scoring of a held-out split by the fixed trio, "
            "repeated passes: reads the quantum layer with no backward pass"},
]

# Timings swing by up to a third between 4-second windows on a shared
# 2-core host, so their bounds are the widest allowed.  Test SSIM and the
# error rate are printed by every run but not declared: SSIM after a short
# lr-0.1 training varies 18-30% (IQR over median) from seed to seed, and the
# error rate reads 0.
END_TO_END: List[Dict[str, object]] = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_samples_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "op_ms_tail", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

PER_LAYER: List[Dict[str, str]] = [
    {"name": name, "unit": unit, "better": better}
    for name, unit, better in (
        ("seismic.propagate.self_s", "s", "lower"),
        ("seismic.propagate.calls", "count", "lower"),
        ("seismic.wavefield_steps", "count", "higher"),
        ("seismic.wavefield_steps_per_s", "1/s", "higher"),
        ("seismic.laplacian_s", "s", "lower"),
        ("seismic.update_s", "s", "lower"),
        ("seismic.inject_s", "s", "lower"),
        ("seismic.boundary_s", "s", "lower"),
        ("seismic.record_s", "s", "lower"),
        ("seismic.flops_computed", "count", "higher"),
        ("seismic.bytes_computed", "count", "higher"),
        ("data.build_chunk.self_s", "s", "lower"),
        ("data.build_chunk.calls", "count", "higher"),
        ("core.data_scaling.scale.self_s", "s", "lower"),
        ("core.data_scaling.scale.calls", "count", "higher"),
        ("quantum.autodiff.forward_s", "s", "lower"),
        ("quantum.autodiff.backward_s", "s", "lower"),
        ("quantum.autodiff.per_sample_s", "s", "lower"),
        ("quantum.autodiff.backward_forward_ratio", "1", "lower"),
        ("quantum.autodiff.samples", "count", "higher"),
        ("core.training.step.self_s", "s", "lower"),
        ("core.training.steps", "count", "higher"),
        ("core.training.gather_s", "s", "lower"),
        ("core.training.eval_s", "s", "lower"),
        ("core.training.overhead_s", "s", "lower"),
        ("quantum.predict_batch.self_s", "s", "lower"),
        ("quantum.circuit_runs", "count", "higher"),
        ("quantum.gate_applications_computed", "count", "higher"),
        ("quantum.amplitude_updates_computed", "count", "higher"),
        ("backends.einsum.gate_tensor_hit_ratio", "1", "higher"),
        ("nn.optim.step_s", "s", "lower"),
        ("nn.optim.zero_grad_s", "s", "lower"),
        ("nn.optim.steps", "count", "higher"),
        ("metrics.ssim_s", "s", "lower"),
        ("metrics.ssim.calls", "count", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_ratio", "1", "lower"),
    )
]

SPEC: Dict[str, object] = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": RUN_SECONDS,
    "workloads": WORKLOADS,
    "end_to_end": END_TO_END,
    "per_layer": PER_LAYER,
}


def workload_names() -> List[str]:
    return [workload["name"] for workload in WORKLOADS]


def bounds() -> Dict[str, Dict[str, object]]:
    """``{metric: {"bound": share, "better": "lower"|"higher", "unit": u}}``."""
    return {metric["name"]: dict(metric) for metric in END_TO_END}


def write_spec(path: Path = SPEC_PATH) -> Path:
    path.write_text(json.dumps(SPEC, indent=2) + "\n")
    return path
