"""Statevector simulation backend.

Every consumer (:class:`~repro.quantum.circuit.ParameterizedCircuit`, the
adjoint gradients in :mod:`repro.quantum.autodiff`,
:class:`~repro.core.vqc_model.QuGeoVQC`, :class:`~repro.core.qubatch.QuBatchVQC`
and the benchmarks) executes through the :class:`SimulationBackend`
interface.  The one engine is the vectorised batched-statevector einsum
engine:

>>> from repro.backends import get_backend
>>> get_backend("einsum")   # same as get_backend() / get_backend(None)

A ready :class:`SimulationBackend` instance passed to :func:`get_backend`
is returned as-is, which is how the tests run the per-gate loop oracle.
"""

from repro.backends.base import SimulationBackend
from repro.backends.einsum_batch import EinsumBatchBackend
from repro.backends.registry import (
    BackendError,
    UnknownBackendError,
    available_backends,
    default_backend_name,
    get_backend,
)

__all__ = [
    "BackendError",
    "EinsumBatchBackend",
    "SimulationBackend",
    "UnknownBackendError",
    "available_backends",
    "default_backend_name",
    "get_backend",
]
