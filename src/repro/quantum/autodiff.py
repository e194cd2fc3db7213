"""Gradients of scalar losses through parameterised circuits.

Training a VQC needs ``dL/d(theta)`` for every circuit parameter.  Four
methods are provided:

* :func:`circuit_gradients` — reverse-mode ("adjoint") differentiation: one
  forward pass plus one backward sweep over the gates, using the analytic
  derivative matrices from :mod:`repro.quantum.parametric`.  For a real loss
  ``L(psi_out)`` the parameter gradient is ``2 Re(lambda^dagger dU/dtheta
  psi_before_gate)`` where ``lambda = dL/d(psi_out*)`` is pulled backwards
  through the inverse gates.  Its cost is independent of the parameter count.
  It is the one-state reference the batched sweep is tested against.
* :func:`circuit_gradients_batched` — the same adjoint method over a whole
  ``(batch, 2**n)`` stack of input states sharing one parameter vector: one
  stacked forward pass with per-gate intermediates, one vectorised loss head
  producing a ``(batch,)`` loss vector and a ``(batch, 2**n)`` co-state
  stack, then one backward sweep pulling all co-states through each
  ``U^dagger`` together.  This is the method used during mini-batch
  training; a batch of B samples costs a handful of BLAS-dispatched
  contractions per gate instead of B sequential Python-level sweeps.
* :func:`parameter_shift_gradients` — the hardware-compatible two-term
  parameter-shift rule (valid for gates generated by an involutory operator,
  e.g. RX/RY/RZ); used by the gradient-method ablation benchmark.
* :func:`finite_difference_gradients` — central finite differences; the
  ground truth for unit tests.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.quantum.circuit import ParameterizedCircuit
from repro.quantum.parametric import PARAMETRIC_GATES
from repro.telemetry import get_telemetry
from repro.xm import ensure_complex

# A loss head maps the output statevector to (loss value, dL/d(psi*)).
LossHead = Callable[[np.ndarray], Tuple[float, np.ndarray]]

# A batched loss head maps a (batch, 2**n) output stack to per-sample losses
# of shape (batch,) and a (batch, 2**n) co-state stack dL_b/d(psi_b*).
BatchedLossHead = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]

# Amplitude budget (~32 MB of complex128) for one stacked parameter-shift
# chunk in :func:`parameter_shift_gradients`.
_SHIFT_SWEEP_MAX_ELEMENTS = 1 << 21

# Amplitude budget (~64 MB of complex128) for the per-gate intermediates one
# chunk of the batched adjoint sweep keeps alive; peak memory stays
# O(chunk * 2**n) per gate instead of O(n_gates * batch * 2**n).
_ADJOINT_SWEEP_MAX_ELEMENTS = 1 << 22


def circuit_gradients(circuit: ParameterizedCircuit, params: np.ndarray,
                      input_state: np.ndarray,
                      loss_head: LossHead,
                      backend=None) -> Tuple[float, np.ndarray]:
    """Reverse-mode gradient of ``loss_head`` through ``circuit``.

    Parameters
    ----------
    circuit:
        The gate program.
    params:
        Flat parameter vector.
    input_state:
        Encoded input statevector (treated as constant).
    loss_head:
        Function mapping the output statevector to ``(loss, dL/d(psi*))``.
    backend:
        Simulation engine (name, instance or ``None`` for the default) used
        for the forward pass and the backward gate applications.

    Returns
    -------
    (loss, gradients):
        The loss value and an array of ``circuit.n_params`` gradients.
    """
    from repro.backends import get_backend

    engine = get_backend(backend)
    params = np.asarray(params, dtype=np.float64).reshape(-1)
    output, intermediates = circuit.run(input_state, params,
                                        return_intermediate=True,
                                        backend=engine)
    loss, lam = loss_head(output)
    lam = ensure_complex(lam).reshape(-1)
    if lam.size != output.size:
        raise ValueError("loss head returned a gradient of the wrong length")

    grads = np.zeros(circuit.n_params, dtype=np.float64)
    _backward_sweep(engine, circuit, params, intermediates, lam, grads)
    return float(loss), grads


def _backward_sweep(engine, circuit: ParameterizedCircuit, params: np.ndarray,
                    intermediates, lam: np.ndarray, grads: np.ndarray) -> None:
    """Pull one co-state back through the circuit, accumulating ``grads``.

    ``intermediates[i]`` is the statevector before op ``i``; ``grads`` is the
    ``(n_params,)`` output buffer (written in place).
    """
    n = circuit.n_qubits
    for index in range(len(circuit.ops) - 1, -1, -1):
        op = circuit.ops[index]
        state_before = intermediates[index]
        matrix = circuit.op_matrix(op, params)
        if op.is_parametric:
            gate_params = [float(params[i]) for i in op.param_indices]
            derivative_matrices = PARAMETRIC_GATES[op.name].derivatives(gate_params)
            # All parameter derivatives of this gate share the contraction
            # R[a, b] = sum_rest conj(lam)[a, rest] * psi_before[b, rest];
            # each gradient is then 2 Re(sum_ab dU[a, b] R[a, b]), which avoids
            # applying every derivative matrix to the full state.
            reduced = _reduced_overlap(lam, state_before, op.qubits, n)
            for d_matrix, param_index in zip(derivative_matrices, op.param_indices):
                grads[param_index] += 2.0 * float(np.real(np.sum(d_matrix * reduced)))
        # Pull the co-state back through the gate: lambda <- U^dagger lambda.
        lam = engine.apply_gate(lam, matrix.conj().T, op.qubits, n)


def _reduced_overlap(lam: np.ndarray, state: np.ndarray,
                     targets, n_qubits: int) -> np.ndarray:
    """Contract ``conj(lam)`` with ``state`` over all qubits except ``targets``.

    Returns the ``2^k x 2^k`` matrix ``R[a, b] = <lam_a | state_b>`` where the
    indices ``a`` / ``b`` run over the computational basis of the target
    qubits (ordered as given).
    """
    k = len(targets)
    lam_t = np.moveaxis(lam.reshape((2,) * n_qubits), targets, range(k))
    state_t = np.moveaxis(state.reshape((2,) * n_qubits), targets, range(k))
    lam_flat = lam_t.reshape(2**k, -1)
    state_flat = state_t.reshape(2**k, -1)
    return lam_flat.conj() @ state_flat.T


def circuit_gradients_batched(circuit: ParameterizedCircuit, params: np.ndarray,
                              input_states: np.ndarray,
                              loss_head: BatchedLossHead,
                              backend=None,
                              max_elements: int = _ADJOINT_SWEEP_MAX_ELEMENTS
                              ) -> Tuple[np.ndarray, np.ndarray]:
    """Reverse-mode gradients of a whole mini-batch in one stacked sweep.

    Parameters
    ----------
    circuit:
        The gate program (shared by every sample).
    params:
        Flat parameter vector (shared by every sample).
    input_states:
        ``(batch, 2**n)`` stack of encoded input statevectors.
    loss_head:
        Vectorised head mapping the ``(batch, 2**n)`` output stack to
        ``(losses, lams)`` where ``losses`` has shape ``(batch,)`` and
        ``lams`` is the ``(batch, 2**n)`` co-state stack ``dL_b/d(psi_b*)``.
        It is invoked exactly once per call, always on the full batch.
    backend:
        Simulation engine (name, instance or ``None`` for the default); the
        sweep runs through its ``run_batched`` / ``apply_gate_batched``.
    max_elements:
        Amplitude budget for the per-gate intermediates held by one backward
        chunk.  Batches whose intermediates exceed it are re-run forward in
        chunks (gradient checkpointing over the batch axis), so peak memory
        is ``O(max_elements)`` rather than ``O(n_gates * batch * 2**n)``.

    Returns
    -------
    (losses, gradients):
        Per-sample losses of shape ``(batch,)`` and the per-sample gradient
        matrix of shape ``(batch, circuit.n_params)``.
    """
    from repro.backends import get_backend

    engine = get_backend(backend)
    params = np.asarray(params, dtype=np.float64).reshape(-1)
    # Complex stacks keep their precision (a complex64 batch sweeps the
    # adjoint at complex64); real inputs are promoted to complex128.
    states = ensure_complex(input_states)
    if states.ndim != 2:
        raise ValueError("input_states must have shape (batch, 2**n_qubits)")
    batch, dim = states.shape
    if dim != 2**circuit.n_qubits:
        raise ValueError(
            f"state length {dim} does not match {circuit.n_qubits} qubits")
    if batch == 0:
        return np.zeros(0), np.zeros((0, circuit.n_params))

    chunk_rows = max(1, int(max_elements) // ((len(circuit.ops) + 1) * dim))
    grads = np.zeros((batch, circuit.n_params))
    telemetry = get_telemetry()
    if telemetry.enabled:
        n_chunks = (1 if chunk_rows >= batch
                    else -(-batch // chunk_rows))  # ceil division
        telemetry.counter("gradients.batched.calls").inc()
        telemetry.counter("gradients.batched.samples").inc(batch)
        telemetry.counter("gradients.batched.chunks").inc(n_chunks)
        telemetry.gauge("gradients.batched.amplitude_budget").set(max_elements)
        telemetry.gauge("gradients.batched.chunk_rows").set(
            min(chunk_rows, batch))
    if chunk_rows >= batch:
        with telemetry.span("gradients.forward"):
            outputs, intermediates = engine.run_batched(
                circuit, states, params, return_intermediate=True)
        losses, lams = _check_batched_head(loss_head(outputs), batch, dim)
        with telemetry.span("gradients.backward"):
            _batched_backward_sweep(engine, circuit, params, intermediates,
                                    lams, grads)
        return losses, grads
    # Checkpointed path: one plain forward feeds the loss head on the full
    # batch, then each chunk re-runs its forward with intermediates right
    # before its backward sweep so only one chunk's intermediates are alive.
    with telemetry.span("gradients.forward"):
        outputs = engine.run_batched(circuit, states, params)
    losses, lams = _check_batched_head(loss_head(outputs), batch, dim)
    for start in range(0, batch, chunk_rows):
        stop = min(start + chunk_rows, batch)
        with telemetry.span("gradients.forward"):
            _, intermediates = engine.run_batched(circuit, states[start:stop],
                                                  params,
                                                  return_intermediate=True)
        with telemetry.span("gradients.backward"):
            _batched_backward_sweep(engine, circuit, params, intermediates,
                                    lams[start:stop], grads[start:stop])
    return losses, grads


def _check_batched_head(result, batch: int, dim: int
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Validate the ``(losses, lams)`` pair returned by a batched loss head."""
    losses, lams = result
    losses = np.asarray(losses, dtype=np.float64).reshape(-1)
    lams = ensure_complex(lams)
    if losses.size != batch:
        raise ValueError(
            f"batched loss head returned {losses.size} losses for a batch "
            f"of {batch}")
    if lams.shape != (batch, dim):
        raise ValueError(
            f"batched loss head returned a co-state stack of shape "
            f"{lams.shape}, expected {(batch, dim)}")
    return losses, lams


def _batched_backward_sweep(engine, circuit: ParameterizedCircuit,
                            params: np.ndarray, intermediates, lams: np.ndarray,
                            grads: np.ndarray) -> None:
    """Pull a co-state stack back through the circuit, accumulating ``grads``.

    ``intermediates[i]`` is the ``(batch, 2**n)`` state stack before op
    ``i``; ``grads`` is the ``(batch, n_params)`` output buffer (written in
    place).  Each parametric gate costs one batched reduced-overlap
    contraction plus one ``(batch, 4**k) @ (4**k, n_gate_params)`` matmul.
    """
    n = circuit.n_qubits
    batch = lams.shape[0]
    for index in range(len(circuit.ops) - 1, -1, -1):
        op = circuit.ops[index]
        states_before = intermediates[index]
        matrix = circuit.op_matrix(op, params)
        if op.is_parametric:
            gate_params = [float(params[i]) for i in op.param_indices]
            derivatives = PARAMETRIC_GATES[op.name].derivatives(gate_params)
            # R[b, a, c] = sum_rest conj(lam)[b, a, rest] * psi[b, c, rest];
            # every parameter derivative of this gate then reduces to one
            # row-wise dot 2 Re(sum_ac dU[a, c] R[b, a, c]).
            reduced = _reduced_overlap_batched(lams, states_before, op.qubits,
                                               n)
            d_stack = np.stack(derivatives).reshape(len(derivatives), -1)
            contrib = 2.0 * np.real(reduced.reshape(batch, -1) @ d_stack.T)
            for column, param_index in enumerate(op.param_indices):
                grads[:, param_index] += contrib[:, column]
        # Pull the co-states back through the gate: lam <- U^dagger lam.
        lams = engine.apply_gate_batched(lams, matrix.conj().T, op.qubits, n)


def _reduced_overlap_batched(lams: np.ndarray, states: np.ndarray,
                             targets, n_qubits: int) -> np.ndarray:
    """Batched :func:`_reduced_overlap`: ``R[b, a, c] = <lam_ba | state_bc>``.

    ``lams`` and ``states`` are ``(batch, 2**n)`` stacks; the result has
    shape ``(batch, 2**k, 2**k)`` with ``a`` / ``c`` running over the
    computational basis of the target qubits (ordered as given).
    """
    k = len(targets)
    batch = lams.shape[0]
    shifted = [t + 1 for t in targets]
    lam_t = np.moveaxis(lams.reshape((batch,) + (2,) * n_qubits), shifted,
                        range(1, k + 1))
    state_t = np.moveaxis(states.reshape((batch,) + (2,) * n_qubits), shifted,
                          range(1, k + 1))
    lam_flat = lam_t.reshape(batch, 2**k, -1)
    state_flat = state_t.reshape(batch, 2**k, -1)
    return np.matmul(lam_flat.conj(), state_flat.swapaxes(1, 2))


def finite_difference_gradients(circuit: ParameterizedCircuit, params: np.ndarray,
                                input_state: np.ndarray, loss_head: LossHead,
                                epsilon: float = 1e-6,
                                backend=None) -> Tuple[float, np.ndarray]:
    """Central finite-difference gradients (reference implementation for tests)."""
    params = np.asarray(params, dtype=np.float64).reshape(-1)
    loss, _ = _evaluate(circuit, params, input_state, loss_head, backend)
    grads = np.zeros_like(params)
    for i in range(params.size):
        shifted = params.copy()
        shifted[i] += epsilon
        loss_plus, _ = _evaluate(circuit, shifted, input_state, loss_head, backend)
        shifted[i] -= 2 * epsilon
        loss_minus, _ = _evaluate(circuit, shifted, input_state, loss_head, backend)
        grads[i] = (loss_plus - loss_minus) / (2 * epsilon)
    return loss, grads


def parameter_shift_gradients(circuit: ParameterizedCircuit, params: np.ndarray,
                              input_state: np.ndarray, loss_head: LossHead,
                              shift: float = np.pi / 2,
                              backend=None) -> Tuple[float, np.ndarray]:
    """Two-term parameter-shift gradients.

    Exact for parameters that enter through a rotation generated by an
    involutory operator with eigenvalues +-1/2 (RX, RY, RZ, CRX and the theta
    parameter of U3).  For other parameters the rule is an approximation; the
    reproduction uses :func:`circuit_gradients` for training and keeps this
    function for the ablation benchmark comparing gradient strategies.

    The whole sweep — both shifted circuits for every parameter — executes
    as stacked ``run_batched`` calls over a ``(2 * n_params, n_params)``
    parameter matrix instead of ``2 * n_params`` sequential simulations.
    """
    from repro.backends import get_backend

    engine = get_backend(backend)
    params = np.asarray(params, dtype=np.float64).reshape(-1)
    loss, _ = _evaluate(circuit, params, input_state, loss_head, engine)
    if params.size == 0:
        return loss, np.zeros_like(params)
    offsets = np.zeros((2 * params.size, params.size))
    rows = np.arange(params.size)
    offsets[2 * rows, rows] = shift
    offsets[2 * rows + 1, rows] = -shift
    shifted = params[None, :] + offsets
    state = np.asarray(input_state, dtype=np.complex128).reshape(-1)
    # Chunk the sweep so one stacked run holds a bounded number of
    # amplitudes: peak memory stays O(chunk) instead of
    # O(n_params * 2**n) however many parameters the circuit has.
    max_rows = max(1, _SHIFT_SWEEP_MAX_ELEMENTS // state.size)
    losses = np.empty(shifted.shape[0])
    for start in range(0, shifted.shape[0], max_rows):
        block = shifted[start:start + max_rows]
        states = np.broadcast_to(state, (block.shape[0], state.size))
        outputs = engine.run_batched(circuit, states, block)
        # Write each loss straight into its slot instead of building a
        # throwaway Python list per chunk.
        for row in range(outputs.shape[0]):
            losses[start + row] = loss_head(outputs[row])[0]
    return loss, 0.5 * (losses[0::2] - losses[1::2])


def _evaluate(circuit: ParameterizedCircuit, params: np.ndarray,
              input_state: np.ndarray, loss_head: LossHead,
              backend=None) -> Tuple[float, np.ndarray]:
    output = circuit.run(input_state, params, backend=backend)
    loss, lam = loss_head(output)
    return float(loss), lam
