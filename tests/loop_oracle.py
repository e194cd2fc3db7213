"""The per-gate reference engine the production backends are tested against.

:class:`LoopOracle` executes a circuit as a Python loop over its ops, one
statevector at a time, calling :func:`repro.quantum.gates.apply_matrix` —
the textbook statevector update with no batching, no gate fusion and no
contraction-path tricks.  Its batched methods loop over the single-state
ones, so every execution mode of a production engine (single state,
batched states, batched parameters, adjoint intermediates) has a reference
to be compared with at 1e-10.

It is deliberately not registered: pass an instance
(``backend=LoopOracle()``) wherever a backend is accepted.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.backends import SimulationBackend
from repro.quantum.gates import apply_matrix


class LoopOracle(SimulationBackend):
    """Sequential per-gate NumPy statevector simulation."""

    name = "loop-oracle"

    def run(self, circuit, state: np.ndarray,
            params: Optional[np.ndarray] = None,
            return_intermediate: bool = False):
        state = self.validate_state(circuit, state)
        params = self.validate_params(circuit, params)

        intermediates: List[np.ndarray] = []
        current = state
        for op in circuit.ops:
            if return_intermediate:
                intermediates.append(current)
            matrix = circuit.op_matrix(op, params)
            current = apply_matrix(current, matrix, op.qubits, circuit.n_qubits,
                                   dtype=self.policy.complex)
        if return_intermediate:
            return current, intermediates
        return current

    def run_batched(self, circuit, states: np.ndarray,
                    params: Optional[np.ndarray] = None,
                    return_intermediate: bool = False):
        states = np.asarray(states, dtype=self.policy.complex)
        if states.ndim != 2:
            raise ValueError("states must have shape (batch, 2**n_qubits)")
        per_state_params = self._per_state_params(states.shape[0], params)
        if not return_intermediate:
            return np.stack([self.run(circuit, state, p)
                             for state, p in zip(states, per_state_params)])
        outputs: List[np.ndarray] = []
        per_state: List[List[np.ndarray]] = []
        for state, p in zip(states, per_state_params):
            output, intermediates = self.run(circuit, state, p,
                                             return_intermediate=True)
            outputs.append(output)
            per_state.append(intermediates)
        stacked = [np.stack([row[index] for row in per_state])
                   for index in range(len(circuit.ops))]
        return np.stack(outputs), stacked

    @staticmethod
    def _per_state_params(batch: int, params: Optional[np.ndarray]
                          ) -> List[Optional[np.ndarray]]:
        """Expand ``params`` into one parameter vector per batch entry."""
        if params is None:
            return [None] * batch
        params = np.asarray(params, dtype=np.float64)
        if params.ndim <= 1:
            return [params] * batch
        if params.ndim == 2:
            if params.shape[0] != batch:
                raise ValueError(
                    f"parameter batch {params.shape[0]} does not match "
                    f"state batch {batch}")
            return list(params)
        raise ValueError("params must be a vector or a (batch, n_params) matrix")

    def apply_gate_batched(self, states: np.ndarray, matrix: np.ndarray,
                           targets: Sequence[int], n_qubits: int) -> np.ndarray:
        states = np.asarray(states, dtype=self.policy.complex)
        if states.ndim != 2:
            raise ValueError("states must have shape (batch, 2**n_qubits)")
        return np.stack([self.apply_gate(state, matrix, targets, n_qubits)
                         for state in states])
