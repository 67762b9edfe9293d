"""Hand-built records for fixture-style tests, and a guard on whole-record reads."""
import contextlib

import numpy as np
import pytest

import liesegang as lg
from liesegang import model
from liesegang.records import BACK_OFFSETS, RIGHT_CELLS, StoredRows


def make_record(params, grid, times, u=None, p=None, ignition_time=None):
    """Assemble a sharp-relay SolutionRecord from explicit snapshot arrays.

    ``u`` defaults to psi on the grid (zero deficit); ``p`` defaults to the
    canonical indicator of ``ignition_time``.  ``p`` is stored as the
    accumulator, from which the sharp relay derives it exactly.  Unspecified
    ignition data stays unset.
    """
    times = np.asarray(times, dtype=float)
    x = grid.x
    n = x.size
    psi_vals = model.psi(x[None, :], times[:, None], params)
    if u is None:
        u = psi_vals.copy()
    u = np.asarray(u, dtype=float)
    if ignition_time is None:
        ignition_time = np.full(n, np.nan)
    ignition_time = np.asarray(ignition_time, dtype=float)
    if p is None:
        ell = np.where(np.isfinite(ignition_time), ignition_time, np.inf)
        p = (times[:, None] > ell[None, :]).astype(float)
    return lg.SolutionRecord(
        params=params, grid=grid, relay_kind=lg.RelayKind.sharp(),
        snapshot_stride=1, scheme="synthetic",
        times=times, w=u - psi_vals, accum=np.array(p, dtype=float),
        ignition_time=ignition_time,
        ignition_u_right=np.full((n, RIGHT_CELLS), np.nan),
        ignition_u_back=np.full((n, len(BACK_OFFSETS)), np.nan),
        constants=None,
    )


def flat_record(params):
    """u = -1 on dx 0.02 and x_max 1 at t = 0, 0.1, 0.2 and 0.3, with the ring
    constants of ``params``: its u_x = 0 lies above the (negative) gradient
    bound of :func:`liesegang.solver.measure_t1` at every snapshot after t = 0."""
    grid = lg.GridSpec.make(dx=0.02, dt=1e-3, x_max=1.0, t_max=0.3)
    record = lg.SolutionRecord.from_fields(lambda x, t: 0.0 * x - 1.0, params, grid,
                                           snapshot_stride=100)
    record.constants = lg.compute_constants(params)
    return record


@contextlib.contextmanager
def no_whole_record_reads():
    """Inside the block, reading ``SolutionRecord.u`` or ``.p``, or a ``w`` or
    ``accum`` stored in a record file whole, raises: a reader must derive and
    read them only where it reads (``u_on``, ``p_on``)."""
    def forbidden(name):
        def read(self):
            raise AssertionError(f"SolutionRecord.{name} read on the whole record")
        return property(read)

    def whole(stored):
        raise AssertionError(f"a stored record array of shape {stored.shape} read whole")

    with pytest.MonkeyPatch.context() as patch:
        for name in ("u", "p"):
            patch.setattr(lg.SolutionRecord, name, forbidden(name))
        patch.setattr(StoredRows, "whole", whole)
        yield
