"""The array-module abstraction (``ArrayOps``) and its registry.

An :class:`ArrayOps` instance is the narrow waist between the numeric
engines (the einsum simulation backend, the batched acoustic propagator)
and the array library executing them.  It exposes exactly the operations
those hot loops need — allocation, reshape, ``einsum``, ``matmul``, casting
and host transfer — with NumPy semantics, so an engine written against it
runs unchanged on NumPy or PyTorch (CPU or GPU) arrays.

Resolution mirrors the simulation-backend registry:

1. an explicit name (or ready instance) passed by the caller;
2. the ``QUGEO_ARRAY_MODULE`` environment variable;
3. the process-wide default (``"numpy"`` out of the box).

Modules with missing optional dependencies register normally but raise
:class:`ArrayModuleUnavailableError` (naming the missing package) when
resolved, so ``get_array_module("torch")`` fails loudly instead of at the
first contraction.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

import numpy as np

from repro.utils import env


class ArrayModuleError(RuntimeError):
    """Base class for array-module registry failures."""


class UnknownArrayModuleError(ArrayModuleError, KeyError):
    """Raised when resolving a name no module was registered under."""

    def __init__(self, name: str) -> None:
        self.name = name
        available = ", ".join(sorted(_FACTORIES)) or "<none>"
        super().__init__(
            f"unknown array module {name!r}; registered modules: {available}")

    def __str__(self) -> str:  # KeyError would quote the repr of args[0]
        return self.args[0]


class ArrayModuleUnavailableError(ArrayModuleError, ImportError):
    """Raised when a registered module's import dependency is missing."""

    def __init__(self, name: str, package: str) -> None:
        self.name = name
        super().__init__(
            f"array module {name!r} requires the optional package "
            f"{package!r}, which is not installed")


class ArrayOps:
    """NumPy-semantics operation set over one array library.

    The base class *is* the NumPy implementation; alternative libraries
    subclass it and override the methods whose spelling differs.  All
    ``dtype`` arguments are NumPy dtypes — :meth:`native_dtype` translates
    them to the library's own dtype objects where needed.
    """

    #: Registry key and display name.
    name: str = "numpy"

    #: Whether :func:`numpy.einsum_path`-style precomputed contraction paths
    #: apply (the optimised-path cache in the einsum backend is NumPy-only;
    #: other libraries dispatch their own contraction planning).
    supports_einsum_path: bool = True

    #: Device the module computes on ("cpu" for NumPy).
    device: str = "cpu"

    # ------------------------------------------------------------------ #
    # dtype translation
    # ------------------------------------------------------------------ #
    def native_dtype(self, dtype):
        """Translate a NumPy dtype to the library's dtype object."""
        return np.dtype(dtype)

    # ------------------------------------------------------------------ #
    # construction / conversion
    # ------------------------------------------------------------------ #
    def asarray(self, array, dtype=None):
        """Coerce ``array`` (host or native) to a native array."""
        return np.asarray(array, dtype=dtype)

    def ascontiguous(self, array):
        """A C-contiguous view (or copy) of ``array``."""
        return np.ascontiguousarray(array)

    def zeros(self, shape, dtype):
        return np.zeros(shape, dtype=dtype)

    def empty(self, shape, dtype):
        return np.empty(shape, dtype=dtype)

    def zeros_like(self, array):
        return np.zeros_like(array)

    def empty_like(self, array):
        return np.empty_like(array)

    def stack(self, arrays):
        return np.stack(arrays)

    def to_numpy(self, array) -> np.ndarray:
        """Transfer a native array back to a host NumPy array (no copy on
        NumPy itself)."""
        return np.asarray(array)

    # ------------------------------------------------------------------ #
    # shape / structure
    # ------------------------------------------------------------------ #
    def reshape(self, array, shape):
        return array.reshape(shape)

    def size(self, array) -> int:
        """Total element count of ``array``."""
        return int(array.size)

    # ------------------------------------------------------------------ #
    # arithmetic kernels
    # ------------------------------------------------------------------ #
    def einsum(self, subscripts: str, *operands):
        return np.einsum(subscripts, *operands)

    def matmul(self, a, b, out=None):
        return np.matmul(a, b, out=out)

    def multiply(self, a, b, out=None):
        return np.multiply(a, b, out=out)

    def conj(self, array):
        return np.conj(array)

    def abs2(self, array):
        """Elementwise ``|x|^2`` (measurement probabilities)."""
        return np.abs(array) ** 2

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def synchronize(self) -> None:
        """Block until queued device work is done (no-op on CPU modules)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, device={self.device!r})"


#: The NumPy implementation is the base class itself.
NumpyOps = ArrayOps

_FACTORIES: Dict[str, Callable[[], ArrayOps]] = {}
_INSTANCES: Dict[str, ArrayOps] = {}
_DEFAULT_NAME = "numpy"

ArrayModuleSpec = Union[None, str, ArrayOps]


def register_array_module(name: str, factory: Callable[[], ArrayOps],
                          *, replace: bool = False) -> None:
    """Register ``factory`` (a zero-arg callable) under ``name``."""
    if not name or not isinstance(name, str):
        raise ValueError("array module name must be a non-empty string")
    if not callable(factory):
        raise TypeError("array module factory must be callable")
    if name in _FACTORIES and not replace:
        raise ArrayModuleError(
            f"array module {name!r} is already registered; pass replace=True "
            f"to override it")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def available_array_modules() -> List[str]:
    """Sorted names of every registered module (installed or not)."""
    return sorted(_FACTORIES)


def array_module_available(name: str) -> bool:
    """Whether ``name`` is registered *and* its dependencies import."""
    if name not in _FACTORIES:
        return False
    try:
        get_array_module(name)
    except ArrayModuleUnavailableError:
        return False
    return True


def default_array_module_name() -> str:
    """The name :func:`get_array_module` resolves when given ``None``."""
    return env.get_str(env.ARRAY_MODULE, _DEFAULT_NAME)


def set_default_array_module(name: str) -> None:
    """Set the process-wide default module (must already be registered)."""
    global _DEFAULT_NAME
    if name not in _FACTORIES:
        raise UnknownArrayModuleError(name)
    _DEFAULT_NAME = name


def get_array_module(spec: ArrayModuleSpec = None) -> ArrayOps:
    """Resolve ``spec`` to a ready :class:`ArrayOps` instance.

    ``spec`` may be ``None`` (use ``QUGEO_ARRAY_MODULE`` / the process
    default), a registered name, or an already-constructed instance
    (returned as-is).
    """
    if isinstance(spec, ArrayOps):
        return spec
    if spec is None:
        spec = default_array_module_name()
    if not isinstance(spec, str):
        raise TypeError(
            f"array module spec must be None, a name or an ArrayOps "
            f"instance, got {type(spec).__name__}")
    if spec not in _FACTORIES:
        raise UnknownArrayModuleError(spec)
    if spec not in _INSTANCES:
        instance = _FACTORIES[spec]()
        if not isinstance(instance, ArrayOps):
            raise TypeError(
                f"factory for array module {spec!r} returned "
                f"{type(instance).__name__}, not an ArrayOps")
        _INSTANCES[spec] = instance
    return _INSTANCES[spec]


def _torch_factory() -> ArrayOps:
    from repro.xm.torch_ops import TorchOps

    return TorchOps()


register_array_module("numpy", NumpyOps)
register_array_module("torch", _torch_factory)
