"""String-keyed registry of acoustic propagator engines.

Propagation engines register a factory under a short name (``"scalar"``,
``"batched"``, ...) and callers resolve them with :func:`get_propagator`.  A factory is a
callable ``factory(velocity, config) -> simulator`` returning an object with
the ``simulate_shots`` interface of
:class:`~repro.seismic.acoustic2d.AcousticSimulator2D`; unlike the quantum
backends, instances are bound to a velocity model and therefore not cached.

Resolution order for the default engine:

1. an explicit name (or ready factory) passed by the caller — e.g. from
   :attr:`repro.seismic.forward_modeling.ForwardModel.propagator`;
2. the ``QUGEO_PROPAGATOR`` environment variable;
3. the process-wide default set with :func:`set_default_propagator`
   (``"batched"`` out of the box — it matches the ``"scalar"`` reference to
   machine precision while advancing every shot in one time loop).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.seismic.acoustic2d import (
    AcousticSimulator2D,
    BatchedAcousticSimulator2D,
)
from repro.utils import env

#: Environment variable consulted when no explicit propagator is requested.
PROPAGATOR_ENV_VAR = env.PROPAGATOR

PropagatorFactory = Callable[..., object]
PropagatorSpec = Union[None, str, PropagatorFactory]

_FACTORIES: Dict[str, PropagatorFactory] = {}
_DEFAULT_NAME = "batched"


class PropagatorError(RuntimeError):
    """Base class for propagator registry failures."""


class UnknownPropagatorError(PropagatorError, KeyError):
    """Raised when resolving a name no engine was registered under."""

    def __init__(self, name: str) -> None:
        self.name = name
        available = ", ".join(sorted(_FACTORIES)) or "<none>"
        super().__init__(
            f"unknown acoustic propagator {name!r}; registered propagators: "
            f"{available}")

    def __str__(self) -> str:  # KeyError would quote the repr of args[0]
        return self.args[0]


class DuplicatePropagatorError(PropagatorError, ValueError):
    """Raised when registering a name that is already taken."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(
            f"acoustic propagator {name!r} is already registered; pass "
            f"replace=True to override it")


def register_propagator(name: str, factory: PropagatorFactory,
                        *, replace: bool = False) -> None:
    """Register ``factory(velocity, config)`` under ``name``.

    Registering an existing name raises :class:`DuplicatePropagatorError`
    unless ``replace=True``.
    """
    if not name or not isinstance(name, str):
        raise ValueError("propagator name must be a non-empty string")
    if not callable(factory):
        raise TypeError("propagator factory must be callable")
    if name in _FACTORIES and not replace:
        raise DuplicatePropagatorError(name)
    _FACTORIES[name] = factory


def unregister_propagator(name: str) -> None:
    """Remove ``name`` from the registry (mainly for tests)."""
    if name not in _FACTORIES:
        raise UnknownPropagatorError(name)
    del _FACTORIES[name]


def available_propagators() -> List[str]:
    """Sorted names of every registered engine."""
    return sorted(_FACTORIES)


def default_propagator_name() -> str:
    """The name :func:`get_propagator` resolves when given ``None``."""
    return env.get_str(env.PROPAGATOR, _DEFAULT_NAME)


def set_default_propagator(name: str) -> None:
    """Set the process-wide default engine (must already be registered)."""
    global _DEFAULT_NAME
    if name not in _FACTORIES:
        raise UnknownPropagatorError(name)
    _DEFAULT_NAME = name


def get_propagator(spec: PropagatorSpec = None) -> PropagatorFactory:
    """Resolve ``spec`` to a propagator factory.

    ``spec`` may be ``None`` (use the environment / process default), a
    registered name, or a callable factory (returned as-is, so callers can
    thread a custom engine through without registering it).
    """
    if callable(spec):
        return spec
    if spec is None:
        spec = default_propagator_name()
    if not isinstance(spec, str):
        raise TypeError(
            f"propagator spec must be None, a name or a factory, got "
            f"{type(spec).__name__}")
    if spec not in _FACTORIES:
        raise UnknownPropagatorError(spec)
    return _FACTORIES[spec]


register_propagator("scalar", AcousticSimulator2D)
register_propagator("batched", BatchedAcousticSimulator2D)
