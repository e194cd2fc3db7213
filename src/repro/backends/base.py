"""The abstract simulation-backend interface.

A :class:`SimulationBackend` owns the execution of a
:class:`~repro.quantum.circuit.ParameterizedCircuit` on statevectors.  The
rest of the codebase (circuit ``run``, the adjoint differentiation, the
QuGeoVQC / QuBatchVQC models and every benchmark) talks to simulation only
through this interface.  The one production engine is
:class:`~repro.backends.einsum_batch.EinsumBatchBackend`; the per-gate loop
in ``tests/loop_oracle.py`` implements the same interface as a test oracle.

Conventions shared by all backends (see :mod:`repro.quantum.gates`):

* a state over ``n`` qubits is a complex vector of length ``2**n`` with
  qubit 0 as the most significant bit of the basis index;
* a batch of states is an array of shape ``(batch, 2**n)``;
* gate matrices order ``targets[0]`` as the most significant qubit of the
  gate's own index space (for controlled gates: ``(control, target)``).

The batched adjoint contract: ``run_batched(..., return_intermediate=True)``
returns ``(outputs, intermediates)`` where ``intermediates[i]`` is the
``(batch, 2**n)`` state stack *before* op ``i`` (gate fusion disabled), and
:meth:`SimulationBackend.apply_gate_batched` applies one matrix to a whole
stack.  :func:`repro.quantum.autodiff.circuit_gradients_batched` drives the
trainer's gradients through these two methods on every engine.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.xm import get_dtype_policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.quantum.circuit import ParameterizedCircuit
    from repro.xm import DTypePolicy


class SimulationBackend(ABC):
    """Abstract statevector simulation engine.

    Concrete engines implement :meth:`run`, :meth:`run_batched` and
    :meth:`apply_gate_batched`; :func:`repro.backends.registry.get_backend`
    passes any instance through, so an oracle engine needs no registration.
    """

    #: Display name of the engine.
    name: str = "abstract"

    def __init__(self, policy: "DTypePolicy" = None) -> None:
        """Bind the engine to a dtype policy.

        ``None`` defers to the ``QUGEO_DTYPE`` environment variable, then
        ``float64``, which reproduces the historical hard-coded behaviour.
        """
        self.policy = get_dtype_policy(policy)

    # ------------------------------------------------------------------ #
    # core execution
    # ------------------------------------------------------------------ #
    @abstractmethod
    def run(self, circuit: "ParameterizedCircuit", state: np.ndarray,
            params: Optional[np.ndarray] = None,
            return_intermediate: bool = False):
        """Apply ``circuit`` to one statevector.

        Parameters
        ----------
        circuit:
            The gate program to execute.
        state:
            Input statevector of length ``2**circuit.n_qubits``.
        params:
            Flat parameter vector of length ``circuit.n_params`` (``None``
            means all-zero parameters).
        return_intermediate:
            Also return the list of statevectors *before* each gate, in op
            order, as required by the adjoint gradient sweep.

        Returns
        -------
        numpy.ndarray or (numpy.ndarray, list[numpy.ndarray])
            The output statevector, plus the per-op intermediates when
            ``return_intermediate`` is true.
        """

    @abstractmethod
    def run_batched(self, circuit: "ParameterizedCircuit", states: np.ndarray,
                    params: Optional[np.ndarray] = None,
                    return_intermediate: bool = False):
        """Apply ``circuit`` to a ``(batch, 2**n)`` stack of statevectors.

        ``params`` may be a shared ``(n_params,)`` vector or a
        ``(batch, n_params)`` matrix giving each state its own parameters
        (used to stack parameter-shift sweeps).  With
        ``return_intermediate`` the per-op pre-gate state stacks are also
        returned (one ``(batch, 2**n)`` array per op, in op order), which is
        the contract the batched adjoint sweep in
        :func:`repro.quantum.autodiff.circuit_gradients_batched` relies on.
        """

    # ------------------------------------------------------------------ #
    # shared input validation (one copy of the run() contract)
    # ------------------------------------------------------------------ #
    def validate_state(self, circuit: "ParameterizedCircuit",
                       state: np.ndarray) -> np.ndarray:
        """Coerce ``state`` to a flat complex vector of the register size.

        The vector is cast to the policy's complex compute dtype
        (``complex128`` by default, ``complex64`` under the float32 policy).
        """
        state = np.asarray(state, dtype=self.policy.complex).reshape(-1)
        if state.size != 2**circuit.n_qubits:
            raise ValueError(
                f"state length {state.size} does not match "
                f"{circuit.n_qubits} qubits")
        return state

    def validate_params(self, circuit: "ParameterizedCircuit",
                        params: Optional[np.ndarray]) -> np.ndarray:
        """Coerce ``params`` to a flat float vector (``None`` -> zeros).

        Parameters (gate angles) always stay in the accumulation precision:
        they are few, they parameterise trig evaluations, and gradients with
        respect to them are accumulated in float64 under every policy.
        """
        if params is None:
            return np.zeros(circuit.n_params, dtype=self.policy.accum_real)
        params = np.asarray(params, dtype=self.policy.accum_real).reshape(-1)
        if params.size != circuit.n_params:
            raise ValueError(
                f"expected {circuit.n_params} parameters, got {params.size}")
        return params

    # ------------------------------------------------------------------ #
    # primitives shared with the adjoint sweep
    # ------------------------------------------------------------------ #
    def apply_gate(self, state: np.ndarray, matrix: np.ndarray,
                   targets: Sequence[int], n_qubits: int) -> np.ndarray:
        """Apply one gate matrix to one statevector.

        The adjoint sweep uses this to pull the co-state back through
        ``U^dagger``; the default delegates to the reference implementation
        in :mod:`repro.quantum.gates`.
        """
        from repro.quantum.gates import apply_matrix

        return apply_matrix(state, matrix, targets, n_qubits,
                            dtype=self.policy.complex)

    @abstractmethod
    def apply_gate_batched(self, states: np.ndarray, matrix: np.ndarray,
                           targets: Sequence[int], n_qubits: int) -> np.ndarray:
        """Apply one gate matrix to a ``(batch, 2**n)`` state stack.

        The batched adjoint sweep uses this to pull the whole co-state stack
        back through ``U^dagger`` in one call.
        """

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
