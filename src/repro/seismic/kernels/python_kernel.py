"""Vectorised numpy time loop — the always-available reference kernel.

Every step of the sponge path is a fixed sequence of whole-batch numpy
operations on preallocated buffers: the banded-matmul Laplacian, the
leap-frog update as in-place ufuncs (``np.multiply`` then
``p_next -= p_prev`` and ``p_next += p_curr`` twice), flattened-view
injection, mask damping, flattened-view recording and, at reduced
precision, periodic subnormal flushing.  The loop calls into no BLAS other
than numpy's own, whatever the dtype.

The PML path replaces the mask multiply with the CFS-PML memory-variable
recursions of Pasalic & McGarry (2010): per axis, ``psi`` convolves the
first spatial derivative and ``zeta`` the corrected second derivative, and
``lap + d(psi) + zeta`` stands in for the plain laplacian inside the pads.
The recursions are strip-local: the first derivatives of ``p`` and ``psi``
are clamped 3-tap centred differences taken only on the pads dilated by
one cell (the halo runs), and the ``psi``/``zeta`` updates and the
laplacian correction run on the same slices, one pass per run.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.seismic.kernels.base import KernelPlan, PropagatorKernel

#: Loop phases timed per step, in the order ``_record_phases`` takes them.
_PHASES = ("laplacian", "update", "inject", "boundary", "record")


class PythonKernel(PropagatorKernel):
    """Whole-batch numpy loop: banded-matmul stencil, in-place ufunc update."""

    name = "python"
    supports_snapshots = True

    def run(self, plan: KernelPlan) -> None:
        if plan.pml is not None:
            self._run_pml(plan)
        else:
            self._run_sponge(plan)

    # ------------------------------------------------------------------ #
    # sponge path
    # ------------------------------------------------------------------ #
    def _run_sponge(self, plan: KernelPlan) -> None:
        p_prev, p_curr, p_next = plan.p_prev, plan.p_curr, plan.p_next
        lap, lap_x = plan.lap, plan.lap_x
        c2dt2 = plan.c2dt2
        mask = plan.mask
        flat_views = plan.flat_views
        inject_rows, inject_cols = plan.inject_rows, plan.inject_cols
        inject_amps = plan.inject_amps
        rec_flat = plan.rec_flat
        gather_flat = plan.gather_flat
        n_steps = plan.n_steps
        record_every = plan.record_every
        record_wavefield = plan.record_wavefield
        wavefield_stride = plan.wavefield_stride
        snapshots = plan.snapshots
        laplacian_into = plan.ops._laplacian_into
        flush_cutoff = plan.flush_cutoff
        flush_tiny = flush_cutoff is not None

        # Per-phase profiling accumulates into plain local floats and is
        # flushed to the registry once after the loop; when telemetry is off
        # the loop pays one local-bool check per phase and nothing else.
        telemetry = plan.telemetry
        timing = telemetry.enabled
        t_laplacian = t_update = t_inject = t_boundary = t_record = 0.0

        for step in range(n_steps):
            if timing:
                t0 = perf_counter()
            # p_next = 2 p_curr - p_prev + dt^2 c^2 laplacian(p_curr)
            laplacian_into(p_curr, lap, lap_x)
            if timing:
                t1 = perf_counter()
                t_laplacian += t1 - t0
            np.multiply(lap, c2dt2, out=p_next)
            p_next -= p_prev
            p_next += p_curr
            p_next += p_curr
            if timing:
                t2 = perf_counter()
                t_update += t2 - t1
            p_flat = flat_views[id(p_next)]
            p_flat[inject_rows, inject_cols] += inject_amps[:, step]
            if timing:
                t3 = perf_counter()
                t_inject += t3 - t2

            # Sponge damping on both time levels keeps the scheme stable;
            # the 2-D mask broadcasts over the leading batch axes.
            p_next *= mask
            p_curr *= mask
            if timing:
                t4 = perf_counter()
                t_boundary += t4 - t3

            if step % record_every == 0:
                gather_flat[:, step // record_every, :] = p_flat[:, rec_flat]
            if record_wavefield and step % wavefield_stride == 0:
                snapshots.append(p_next.copy())
            if timing:
                t_record += perf_counter() - t4

            if flush_tiny and step % 16 == 15:
                np.copyto(p_next, 0.0, where=np.abs(p_next) < flush_cutoff)
                np.copyto(p_curr, 0.0, where=np.abs(p_curr) < flush_cutoff)

            p_prev, p_curr, p_next = p_curr, p_next, p_prev

        if timing:
            _record_phases(telemetry, n_steps, t_laplacian, t_update,
                           t_inject, t_boundary, t_record)

    # ------------------------------------------------------------------ #
    # CFS-PML path
    # ------------------------------------------------------------------ #
    def _run_pml(self, plan: KernelPlan) -> None:
        p_prev, p_curr, p_next = plan.p_prev, plan.p_curr, plan.p_next
        lap, lap_x = plan.lap, plan.lap_x
        c2dt2 = plan.c2dt2
        flat_views = plan.flat_views
        inject_rows, inject_cols = plan.inject_rows, plan.inject_cols
        inject_amps = plan.inject_amps
        rec_flat = plan.rec_flat
        gather_flat = plan.gather_flat
        n_steps = plan.n_steps
        record_every = plan.record_every
        record_wavefield = plan.record_wavefield
        wavefield_stride = plan.wavefield_stride
        snapshots = plan.snapshots
        ops = plan.ops
        flush_cutoff = plan.flush_cutoff
        flush_tiny = flush_cutoff is not None

        pml = plan.pml
        x_runs = _halo_runs(pml.x_halo, pml.a_x, pml.b_x, p_curr, on_x=True)
        z_runs = _halo_runs(pml.z_halo, pml.a_z, pml.b_z, p_curr, on_x=False)
        axes = ((x_runs, pml.psi_x, pml.zeta_x, lap_x, pml.half_dx_inv),
                (z_runs, pml.psi_z, pml.zeta_z, lap, pml.half_dz_inv))

        telemetry = plan.telemetry
        timing = telemetry.enabled
        t_laplacian = t_update = t_inject = t_boundary = t_record = 0.0

        for step in range(n_steps):
            if timing:
                t0 = perf_counter()
            # Split-axis second derivatives: d2z in lap, d2x in lap_x.
            ops._lap_z_into(p_curr, lap)
            ops._lap_x_into(p_curr, lap_x)
            if timing:
                t1 = perf_counter()
                t_laplacian += t1 - t0

            # Memory-variable recursions, x axis then z axis, one pass per
            # halo run.  psi convolves the first derivative of p; zeta
            # convolves the second derivative corrected by d(psi); the
            # plain second derivative then gains d(psi) + zeta.  a == b == 0
            # on the halo's extra cell and beyond, so psi is zero wherever
            # d(psi) reads outside the run it has just updated.
            for runs, psi, zeta, lap_axis, half_inv in axes:
                for cells, taps, a, b, d, t in runs:
                    for out, plus, minus in taps:
                        np.subtract(p_curr[plus], p_curr[minus], out=d[out])
                    d *= half_inv
                    d *= a
                    psi_run = psi[cells]
                    psi_run *= b
                    psi_run += d
                    for out, plus, minus in taps:
                        np.subtract(psi[plus], psi[minus], out=d[out])
                    d *= half_inv
                    lap_run = lap_axis[cells]
                    np.add(lap_run, d, out=t)
                    t *= a
                    zeta_run = zeta[cells]
                    zeta_run *= b
                    zeta_run += t
                    d += zeta_run
                    lap_run += d
            lap += lap_x
            if timing:
                t2 = perf_counter()
                t_boundary += t2 - t1

            np.multiply(lap, c2dt2, out=p_next)
            p_next -= p_prev
            p_next += p_curr
            p_next += p_curr
            if timing:
                t3 = perf_counter()
                t_update += t3 - t2
            p_flat = flat_views[id(p_next)]
            p_flat[inject_rows, inject_cols] += inject_amps[:, step]
            if timing:
                t4 = perf_counter()
                t_inject += t4 - t3

            if step % record_every == 0:
                gather_flat[:, step // record_every, :] = p_flat[:, rec_flat]
            if record_wavefield and step % wavefield_stride == 0:
                snapshots.append(p_next.copy())
            if timing:
                t_record += perf_counter() - t4

            if flush_tiny and step % 16 == 15:
                np.copyto(p_next, 0.0, where=np.abs(p_next) < flush_cutoff)
                np.copyto(p_curr, 0.0, where=np.abs(p_curr) < flush_cutoff)

            p_prev, p_curr, p_next = p_curr, p_next, p_prev

        if timing:
            _record_phases(telemetry, n_steps, t_laplacian, t_update,
                           t_inject, t_boundary, t_record)



def _record_phases(telemetry, n_steps, *seconds):
    """Flush the per-phase loop timers to the registry, once per run."""
    for phase, total in zip(_PHASES, seconds):
        telemetry.record_timer(f"propagator.{phase}", total, count=n_steps)


def _halo_runs(halo, a, b, like, on_x):
    """Slicing recipe of the strip-local recursions, one entry per halo run.

    An entry holds the run's cell index, the ``(out, plus, minus)`` indices
    of its centred difference (clamped at the grid edge like the fused
    loop), the run's ``a``/``b`` shaped to broadcast over it, and two
    run-sized scratch buffers.
    """
    n = like.shape[-1 if on_x else -2]

    def at(sl):
        return (Ellipsis, sl) if on_x else (Ellipsis, sl, slice(None))

    runs = []
    for run in halo:
        start, stop = run.start, run.stop
        lo, hi = max(start, 1), min(stop, n - 1)
        taps = [(slice(lo - start, hi - start), slice(lo + 1, hi + 1),
                 slice(lo - 1, hi - 1))]
        if start == 0:
            taps.append((slice(0, 1), slice(1, 2), slice(0, 1)))
        if stop == n:
            taps.append((slice(n - 1 - start, n - start), slice(n - 1, n),
                         slice(n - 2, n - 1)))
        coeff = run if on_x else (run, None)
        scratch = np.empty_like(like[at(run)])
        runs.append((at(run), [tuple(map(at, tap)) for tap in taps],
                     a[coeff], b[coeff], scratch, np.empty_like(scratch)))
    return runs
