"""Shared state handed from the batched propagator to a time-loop kernel.

:class:`~repro.seismic.acoustic2d.BatchedAcousticSimulator2D` owns all the
validation, geometry and buffer setup of a simulation; a *kernel* owns only
the time loop.  The simulator packs everything a loop needs into a
:class:`KernelPlan` — preallocated rotating wavefield buffers, scratch
arrays, injection/recording index tables, the boundary state — and hands it
to ``kernel.run(plan)``, which advances ``plan.n_steps`` steps and fills
``plan.gather`` (and ``plan.snapshots`` when requested).

Kernels mutate the plan's arrays in place and return nothing; the arrays in
the plan stay owned by the caller, so the python reference kernel and the
fused compiled kernels are interchangeable behind the same seam.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass
class PMLState:
    """Per-run CFS-PML coefficient tables and memory fields.

    The recursion coefficients (``a_*``, ``b_*``) are 1-D per-axis tables
    from :func:`repro.seismic.boundary.pml_profiles`, cast to the wavefield
    dtype; both are exactly zero outside the absorbing pads, so the memory
    fields — allocated over the full batched grid for kernel simplicity —
    stay zero in the interior.  ``x_active`` / ``z_active`` mark pad
    columns/rows *dilated by one cell*: the derivative-of-psi correction
    reaches one cell past the pad.  ``x_halo`` / ``z_halo`` are the same
    dilated pads as contiguous runs, the only cells the python kernel's
    recursions touch.
    """

    a_x: np.ndarray
    b_x: np.ndarray
    a_z: np.ndarray
    b_z: np.ndarray
    x_active: np.ndarray
    z_active: np.ndarray
    #: 1 / (2*dx) and 1 / (2*dz): centred first-derivative scales.
    half_dx_inv: float
    half_dz_inv: float
    #: psi = convolved first derivative, zeta = convolved second derivative.
    psi_x: np.ndarray
    psi_z: np.ndarray
    zeta_x: np.ndarray
    zeta_z: np.ndarray
    #: Column/row slices of the one-cell-dilated pads (where corrections
    #: are non-zero), for the vectorised python path.
    x_halo: List[slice] = field(default_factory=list)
    z_halo: List[slice] = field(default_factory=list)


@dataclass
class KernelPlan:
    """Everything a time-loop kernel needs, preassembled by the simulator."""

    #: The owning simulator; exposes the vectorised stencil operators
    #: (``_laplacian_into`` / ``_lap_z_into`` / ``_lap_x_into``) the python
    #: kernel calls per step.
    ops: object
    telemetry: object
    n_steps: int
    record_every: int
    record_wavefield: bool
    wavefield_stride: int
    grid: Tuple[int, int]
    batch_shape: Tuple[int, ...]
    total_batch: int
    n_shots: int
    real: np.dtype
    #: Magnitudes below this are periodically flushed to exact zero on the
    #: reduced-precision path (``None`` = no flushing, the float64 path).
    flush_cutoff: Optional[float]
    #: Rotating wavefield buffers and scratch arrays, shaped
    #: ``batch_shape + (nz, nx)``.
    p_prev: np.ndarray
    p_curr: np.ndarray
    p_next: np.ndarray
    lap: np.ndarray
    lap_x: np.ndarray
    #: ``dt^2 c^2`` broadcastable against the wavefield buffers.
    c2dt2: np.ndarray
    #: Sponge damping mask (``None`` under PML).
    mask: Optional[np.ndarray]
    pml: Optional[PMLState]
    src_rows: np.ndarray
    src_cols: np.ndarray
    rec_rows: np.ndarray
    rec_cols: np.ndarray
    rec_flat: np.ndarray
    inject_rows: np.ndarray
    inject_cols: np.ndarray
    inject_amps: np.ndarray
    flat_views: Dict[int, np.ndarray]
    gather: np.ndarray
    gather_flat: np.ndarray
    snapshots: List[np.ndarray] = field(default_factory=list)

    @property
    def n_recorded(self) -> int:
        """Recorded time samples: ``ceil(n_steps / record_every)``."""
        return -(-self.n_steps // self.record_every)


class PropagatorKernel:
    """Interface of a propagator time-loop engine.

    Subclasses advance ``plan.n_steps`` leap-frog steps, filling
    ``plan.gather`` (decimated by ``plan.record_every``) and appending to
    ``plan.snapshots`` when ``plan.record_wavefield`` is set and the kernel
    supports it (``supports_snapshots``).
    """

    #: Registry name (set per instance/class).
    name: str = "kernel"
    #: Whether :meth:`run` honours ``plan.record_wavefield``.
    supports_snapshots: bool = False

    def run(self, plan: KernelPlan) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r}>"
