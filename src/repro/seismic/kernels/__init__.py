"""String-keyed registry of propagator time-loop kernels.

Mirrors :mod:`repro.seismic.propagators`: kernel engines register a
factory under a short name and the batched propagator resolves one with
:func:`get_kernel`.  A factory is a zero-argument
callable returning a :class:`~repro.seismic.kernels.base.PropagatorKernel`;
it raises :class:`KernelUnavailableError` when an optional dependency is
missing, so registration never imports heavy packages eagerly.

Resolution order for the default engine:

1. an explicit name (or ready kernel instance) passed by the caller — e.g.
   the ``kernel`` argument of
   :class:`~repro.seismic.acoustic2d.BatchedAcousticSimulator2D` or
   :attr:`repro.seismic.forward_modeling.ForwardModel.kernel`;
2. the ``QUGEO_SEISMIC_KERNEL`` environment variable;
3. ``"python"`` — the vectorised numpy loop, always available and
   bit-identical to the historical inline loop.

:func:`resolve_kernel` additionally falls back to ``"python"`` (reporting
why) when the requested kernel is unavailable or cannot serve the request
(e.g. wavefield snapshots from a fused kernel), so a missing optional
dependency degrades instead of failing mid-run.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.seismic.kernels.base import KernelPlan, PMLState, PropagatorKernel
from repro.seismic.kernels.python_kernel import PythonKernel
from repro.utils import env

#: Environment variable consulted when no explicit kernel is requested.
KERNEL_ENV_VAR = env.SEISMIC_KERNEL

KernelFactory = Callable[[], PropagatorKernel]
KernelSpec = Union[None, str, PropagatorKernel]

_FACTORIES: Dict[str, KernelFactory] = {}
_INSTANCES: Dict[str, PropagatorKernel] = {}
_DEFAULT_NAME = "python"


class KernelError(RuntimeError):
    """Base class for kernel registry failures."""


class UnknownKernelError(KernelError, KeyError):
    """Raised when resolving a name no kernel was registered under."""

    def __init__(self, name: str) -> None:
        self.name = name
        available = ", ".join(sorted(_FACTORIES)) or "<none>"
        super().__init__(
            f"unknown propagator kernel {name!r}; registered kernels: "
            f"{available}")

    def __str__(self) -> str:  # KeyError would quote the repr of args[0]
        return self.args[0]


class DuplicateKernelError(KernelError, ValueError):
    """Raised when registering a name that is already taken."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(
            f"propagator kernel {name!r} is already registered; pass "
            f"replace=True to override it")


class KernelUnavailableError(KernelError, ImportError):
    """Raised by a factory whose optional dependency is missing."""

    def __init__(self, name: str, reason: str) -> None:
        self.name = name
        super().__init__(f"propagator kernel {name!r} is unavailable: {reason}")


def register_kernel(name: str, factory: KernelFactory,
                    *, replace: bool = False) -> None:
    """Register a zero-argument kernel ``factory`` under ``name``."""
    if not name or not isinstance(name, str):
        raise ValueError("kernel name must be a non-empty string")
    if not callable(factory):
        raise TypeError("kernel factory must be callable")
    if name in _FACTORIES and not replace:
        raise DuplicateKernelError(name)
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def unregister_kernel(name: str) -> None:
    """Remove ``name`` from the registry (mainly for tests)."""
    if name not in _FACTORIES:
        raise UnknownKernelError(name)
    del _FACTORIES[name]
    _INSTANCES.pop(name, None)


def available_kernels() -> List[str]:
    """Sorted names of every registered kernel (available or not)."""
    return sorted(_FACTORIES)


def kernel_available(name: str) -> bool:
    """Whether ``name`` is registered *and* its dependencies import."""
    if name not in _FACTORIES:
        return False
    try:
        get_kernel(name)
    except KernelUnavailableError:
        return False
    return True


def default_kernel_name() -> str:
    """The name :func:`get_kernel` resolves when given ``None``."""
    return env.get_str(env.SEISMIC_KERNEL, _DEFAULT_NAME)


def get_kernel(spec: KernelSpec = None) -> PropagatorKernel:
    """Resolve ``spec`` to a kernel instance (cached per name).

    ``spec`` may be ``None`` (environment / ``"python"`` default), a
    registered name, or a ready :class:`PropagatorKernel` instance
    (returned as-is).  Raises :class:`KernelUnavailableError` when the
    kernel's optional dependency is missing — use :func:`resolve_kernel`
    for the degrading-to-python behaviour.
    """
    if isinstance(spec, PropagatorKernel):
        return spec
    if spec is None:
        spec = default_kernel_name()
    if not isinstance(spec, str):
        raise TypeError(
            f"kernel spec must be None, a name or a PropagatorKernel, got "
            f"{type(spec).__name__}")
    if spec in _INSTANCES:
        return _INSTANCES[spec]
    if spec not in _FACTORIES:
        raise UnknownKernelError(spec)
    kernel = _FACTORIES[spec]()
    _INSTANCES[spec] = kernel
    return kernel


def resolve_kernel(spec: KernelSpec = None, *, need_snapshots: bool = False
                   ) -> Tuple[PropagatorKernel, Optional[str]]:
    """Resolve ``spec``, degrading to ``"python"`` when it cannot serve.

    Returns ``(kernel, fallback_reason)``; ``fallback_reason`` is ``None``
    when the requested kernel was used, else a human-readable sentence the
    caller can log / count.  Unknown names still raise — only *unavailable*
    or *incapable* kernels degrade.
    """
    try:
        kernel = get_kernel(spec)
    except KernelUnavailableError as exc:
        return get_kernel("python"), str(exc)
    if need_snapshots and not kernel.supports_snapshots:
        return (get_kernel("python"),
                f"kernel {kernel.name!r} does not record wavefield snapshots")
    return kernel, None


def _python_factory() -> PropagatorKernel:
    return PythonKernel()


def _numba_factory() -> PropagatorKernel:
    from repro.seismic.kernels import fused

    if not fused.HAVE_NUMBA:
        raise KernelUnavailableError("numba", "numba is not installed")
    return fused.FusedLoopKernel(name="numba")


register_kernel("python", _python_factory)
register_kernel("numba", _numba_factory)

__all__ = [
    "KERNEL_ENV_VAR",
    "KernelError",
    "KernelPlan",
    "KernelSpec",
    "KernelUnavailableError",
    "DuplicateKernelError",
    "PMLState",
    "PropagatorKernel",
    "PythonKernel",
    "UnknownKernelError",
    "available_kernels",
    "default_kernel_name",
    "get_kernel",
    "kernel_available",
    "register_kernel",
    "resolve_kernel",
    "unregister_kernel",
]
