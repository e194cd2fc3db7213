"""Benchmark — the einsum simulation engine across qubit counts and batch sizes.

Times a batched forward pass of the paper's U3+CU3 ansatz on the
``get_backend("einsum")`` engine.

Run directly (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_backends.py --quick

The full sweep also exercises 10 qubits and batch 32.  Results are printed
and written to ``benchmarks/results/bench_backends.txt``.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import List, Sequence

import numpy as np
from common import (add_cache_dir_argument, add_json_argument,
                    apply_cache_dir, write_json)

from repro.backends import get_backend
from repro.quantum.ansatz import u3_cu3_ansatz
from repro.utils.tables import format_table

RESULTS_DIR = Path(__file__).parent / "results"


def _random_states(n_qubits: int, batch: int, rng) -> np.ndarray:
    states = (rng.normal(size=(batch, 2**n_qubits))
              + 1j * rng.normal(size=(batch, 2**n_qubits)))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def time_backend(backend, circuit, states, params, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one batched forward pass in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        backend.run_batched(circuit, states, params)
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(qubit_counts: Sequence[int], batch_sizes: Sequence[int],
                  n_blocks: int, repeats: int) -> List[List[object]]:
    """Return one table row per qubit count and batch size."""
    rng = np.random.default_rng(0)
    backend = get_backend("einsum")
    rows: List[List[object]] = []
    for n_qubits in qubit_counts:
        circuit = u3_cu3_ansatz(n_qubits, n_blocks=n_blocks)
        params = rng.normal(size=circuit.n_params)
        for batch in batch_sizes:
            states = _random_states(n_qubits, batch, rng)
            # Warm up caches (einsum subscripts, fixed-gate tensors).
            backend.run_batched(circuit, states, params)
            elapsed = time_backend(backend, circuit, states, params, repeats)
            rows.append([backend.name, n_qubits, batch, len(circuit),
                         elapsed * 1e3, elapsed * 1e3 / batch])
    return rows


def render(rows: List[List[object]]) -> str:
    return format_table(
        ["backend", "qubits", "batch", "gates", "total ms", "ms/sample"],
        rows,
        title="einsum engine: batched forward pass of the U3+CU3 ansatz")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized sweep (fewer qubit counts and batches)")
    parser.add_argument("--blocks", type=int, default=12,
                        help="ansatz blocks (paper uses 12)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per cell (best is reported)")
    add_json_argument(parser)
    add_cache_dir_argument(parser)
    args = parser.parse_args()
    apply_cache_dir(args.cache_dir)

    if args.quick:
        qubit_counts, batch_sizes = (4, 6, 8), (1, 8)
    else:
        qubit_counts, batch_sizes = (4, 6, 8, 10), (1, 8, 32)
    rows = run_benchmark(qubit_counts, batch_sizes, args.blocks, args.repeats)
    text = render(rows)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / "bench_backends.txt"
    path.write_text(text + "\n")
    print(text)
    print(f"[written to {path}]")
    if args.json is not None:
        header = ["backend", "qubits", "batch", "gates", "total_ms",
                  "ms_per_sample"]
        write_json("bench_backends",
                   {"n_blocks": args.blocks,
                    "rows": [dict(zip(header, row)) for row in rows]},
                   path=args.json)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
