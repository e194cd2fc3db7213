"""Pluggable statevector simulation backends.

Simulation is a first-class, swappable subsystem: every consumer
(:class:`~repro.quantum.circuit.ParameterizedCircuit`, the adjoint gradients
in :mod:`repro.quantum.autodiff`, :class:`~repro.core.vqc_model.QuGeoVQC`,
:class:`~repro.core.qubatch.QuBatchVQC` and the benchmarks) executes through
the :class:`SimulationBackend` interface and engines are resolved by name
from a registry:

>>> from repro.backends import get_backend
>>> get_backend("einsum")   # vectorised batched-statevector engine (default)

The default is chosen per call site (an explicit argument or
``QuGeoVQCConfig.backend``), falling back to the ``QUGEO_BACKEND``
environment variable and then to ``"einsum"``.  Future engines (GPU, sparse,
remote hardware) plug in with :func:`register_backend` without touching any
caller.

The ``"torch"`` engine is the einsum engine re-based onto the torch
:mod:`repro.xm` array module — same contraction strategy, torch tensors.
It is always *listed* but resolving it raises a clear error when torch is
not installed.
"""

from repro.backends.base import SimulationBackend
from repro.backends.registry import (
    BACKEND_ENV_VAR,
    BackendError,
    DuplicateBackendError,
    UnknownBackendError,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    set_default_backend,
    unregister_backend,
)
from repro.backends.einsum_batch import EinsumBatchBackend

def _array_module_backend(module_name: str):
    """Factory for an einsum engine running on a non-NumPy array module.

    Raises ``ArrayModuleUnavailableError`` (an ``ImportError``) at
    resolution time when the optional dependency is missing, so the names
    always appear in ``available_backends()`` but fail loudly on machines
    without the package.
    """
    from repro.xm import get_array_module

    backend = EinsumBatchBackend(xm=get_array_module(module_name))
    backend.name = module_name
    return backend


register_backend("einsum", EinsumBatchBackend)
register_backend("torch", lambda: _array_module_backend("torch"))

__all__ = [
    "BACKEND_ENV_VAR",
    "BackendError",
    "DuplicateBackendError",
    "EinsumBatchBackend",
    "SimulationBackend",
    "UnknownBackendError",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "set_default_backend",
    "unregister_backend",
]
