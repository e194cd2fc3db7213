"""Resolution of the simulation backend.

The one production engine is ``"einsum"``
(:class:`~repro.backends.einsum_batch.EinsumBatchBackend`).  Callers resolve
it with :func:`get_backend`, which also passes a ready
:class:`~repro.backends.base.SimulationBackend` instance through unchanged
(the tests thread the per-gate loop oracle in this way).  The name is kept
because :attr:`repro.core.config.QuGeoVQCConfig.backend` is a saved config
field: any other name raises :class:`UnknownBackendError`.

The engine is built lazily once and cached, so repeated
``get_backend("einsum")`` calls share one engine (and therefore its
memoised gate tensors and einsum paths).  The build counts a
``backend.selected.einsum`` telemetry event, so a run snapshot records
which engine it simulated on.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.backends.base import SimulationBackend
from repro.backends.einsum_batch import EinsumBatchBackend
from repro.telemetry import get_telemetry

_NAME = EinsumBatchBackend.name
_INSTANCE: Optional[EinsumBatchBackend] = None

BackendSpec = Union[None, str, SimulationBackend]


class BackendError(RuntimeError):
    """Base class for backend resolution failures."""


class UnknownBackendError(BackendError, KeyError):
    """Raised when resolving a name other than the one engine's."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(
            f"unknown simulation backend {name!r}; available backends: "
            f"{_NAME}")

    def __str__(self) -> str:  # KeyError would quote the repr of args[0]
        return self.args[0]


def available_backends() -> List[str]:
    """Names :func:`get_backend` resolves."""
    return [_NAME]


def default_backend_name() -> str:
    """The name :func:`get_backend` resolves when given ``None``."""
    return _NAME


def get_backend(spec: BackendSpec = None) -> SimulationBackend:
    """Resolve ``spec`` to a ready :class:`SimulationBackend` instance.

    ``spec`` may be ``None`` or ``"einsum"`` (the cached engine), or an
    already-constructed backend (returned as-is).
    """
    global _INSTANCE
    if isinstance(spec, SimulationBackend):
        return spec
    if spec is not None and not isinstance(spec, str):
        raise TypeError(
            f"backend spec must be None, a name or a SimulationBackend, "
            f"got {type(spec).__name__}")
    if spec is not None and spec != _NAME:
        raise UnknownBackendError(spec)
    if _INSTANCE is None:
        _INSTANCE = EinsumBatchBackend()
        get_telemetry().counter(f"backend.selected.{_NAME}").inc()
    return _INSTANCE
