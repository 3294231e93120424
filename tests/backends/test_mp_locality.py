"""mp-backend locality features: per-loop fallback reasons, the small
direct-loop dispatch floor, and the cell-segment work decomposition
(shared-dat increments with no scatter merge)."""
import numpy as np
import pytest

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ, OPP_WRITE,
                            Context, arg_dat, decl_dat, decl_map,
                            decl_particle_set, decl_set, par_loop,
                            push_context, sort_particles_by_cell)


def scale_kernel(x, y):
    y[0] = 3.0 * x[0]


def deposit_p2c_kernel(w, acc):
    acc[0] += w[0]
    acc[1] += 2.0 * w[0]


@pytest.fixture
def mp_ctx():
    # library defaults: min_chunk=512 exercises the small-dispatch floor
    ctx = Context("mp", nworkers=2)
    yield ctx
    ctx.backend.close()


def build_deposit_world(rng, n_parts, n_cells=16, sort=False):
    cells = decl_set(n_cells)
    parts = decl_particle_set(cells, n_parts)
    p2c = decl_map(parts, cells, 1,
                   rng.integers(0, n_cells, size=(n_parts, 1)))
    w = decl_dat(parts, 1, np.float64,
                 rng.integers(-8, 9, size=n_parts).astype(np.float64))
    acc = decl_dat(cells, 2, np.float64)
    if sort:
        sort_particles_by_cell(parts)
    return parts, p2c, w, acc


def test_small_direct_loop_dispatches_instead_of_falling_back(mp_ctx):
    """Sub-``min_chunk`` loops without indirect-INC scatters dispatch on
    the ``small_chunk`` floor — the BENCH_baseline fallback-reduction clause."""
    with push_context(mp_ctx):
        s = decl_set(100)        # 100 < 2*512, but 100 >= 2*24
        x = decl_dat(s, 1, np.float64, np.arange(100.0))
        y = decl_dat(s, 1, np.float64)
        par_loop(scale_kernel, "scale", s, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_dat(y, OPP_WRITE))
        assert np.array_equal(y.data[:, 0], 3.0 * np.arange(100.0))
    be = mp_ctx.backend
    assert be.stats["parallel_loops"] == 1
    assert be.stats["small_parallel_loops"] == 1
    assert be.stats["fallback_loops"] == 0
    assert "scale" not in be.fallback_reasons


def test_small_loop_below_floor_records_tiny_reason(mp_ctx):
    with push_context(mp_ctx):
        s = decl_set(30)         # 30 // 24 == 1 chunk: not worth a hop
        x = decl_dat(s, 1, np.float64, np.arange(30.0))
        y = decl_dat(s, 1, np.float64)
        par_loop(scale_kernel, "scale30", s, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_dat(y, OPP_WRITE))
        assert np.array_equal(y.data[:, 0], 3.0 * np.arange(30.0))
    be = mp_ctx.backend
    assert be.stats["fallback_loops"] == 1
    assert be.fallback_reasons["scale30"] == "tiny(n=30)"
    assert mp_ctx.perf.get("scale30").extras["mp_fallback_reason"] \
        == "tiny(n=30)"


def test_small_deposit_loop_still_falls_back(mp_ctx):
    """Indirect-INC scatters pay a merge pass per worker: the small
    floor must not apply to them."""
    rng = np.random.default_rng(0)
    with push_context(mp_ctx):
        parts, p2c, w, acc = build_deposit_world(rng, n_parts=100)
        par_loop(deposit_p2c_kernel, "SmallDeposit", parts,
                 OPP_ITERATE_ALL, arg_dat(w, OPP_READ),
                 arg_dat(acc, p2c, OPP_INC))
    be = mp_ctx.backend
    assert be.stats["parallel_loops"] == 0
    assert be.fallback_reasons["SmallDeposit"] == "tiny(n=100)"


def test_unreferencable_kernel_reason(mp_ctx):
    def local_kernel(x, y):
        y[0] = x[0]

    with push_context(mp_ctx):
        s = decl_set(2048)
        x = decl_dat(s, 1, np.float64, np.ones(2048))
        y = decl_dat(s, 1, np.float64)
        par_loop(local_kernel, "localk", s, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_dat(y, OPP_WRITE))
    assert mp_ctx.backend.fallback_reasons["localk"] == "kernel-unref"


def test_segment_decomposition_increments_shared_dat(mp_ctx):
    """A verifiably cell-sorted particle deposit splits on cell-segment
    boundaries: every worker owns whole cells, so the P2C increments go
    straight into the shared dat and the result is bit-identical to seq
    (integer-valued data keeps reduceat out of the comparison)."""
    seq_ctx = Context("seq")
    with push_context(seq_ctx):
        parts, p2c, w, acc = build_deposit_world(
            np.random.default_rng(5), n_parts=2000, sort=True)
        par_loop(deposit_p2c_kernel, "SegDeposit", parts,
                 OPP_ITERATE_ALL, arg_dat(w, OPP_READ),
                 arg_dat(acc, p2c, OPP_INC))
        want = acc.data.copy()

    with push_context(mp_ctx):
        parts, p2c, w, acc = build_deposit_world(
            np.random.default_rng(5), n_parts=2000, sort=True)
        par_loop(deposit_p2c_kernel, "SegDeposit", parts,
                 OPP_ITERATE_ALL, arg_dat(w, OPP_READ),
                 arg_dat(acc, p2c, OPP_INC))
        got = acc.data.copy()

    be = mp_ctx.backend
    assert be.stats["segment_loops"] == 1
    assert be.stats["fallback_loops"] == 0
    st = mp_ctx.perf.get("SegDeposit")
    assert st.extras["strategy"] == "shared_segments"
    assert st.extras["decomposition"] == "segment"
    assert np.array_equal(got, want)


def test_unsorted_deposit_uses_scatter_arrays(mp_ctx):
    with push_context(mp_ctx):
        parts, p2c, w, acc = build_deposit_world(
            np.random.default_rng(6), n_parts=2000, sort=False)
        par_loop(deposit_p2c_kernel, "BlockDeposit", parts,
                 OPP_ITERATE_ALL, arg_dat(w, OPP_READ),
                 arg_dat(acc, p2c, OPP_INC))
    st = mp_ctx.perf.get("BlockDeposit")
    assert st.extras["strategy"] == "scatter_arrays"
    assert st.extras["decomposition"] == "block"
    assert mp_ctx.backend.stats["segment_loops"] == 0


def test_dirty_order_disables_segment_decomposition(mp_ctx):
    """A move that relocates particles dirties the order; the next
    deposit must fall off the segment path (stale offsets would race)."""
    with push_context(mp_ctx):
        parts, p2c, w, acc = build_deposit_world(
            np.random.default_rng(7), n_parts=2000, sort=True)
        parts.order.note_relocated(5)
        par_loop(deposit_p2c_kernel, "DirtyDeposit", parts,
                 OPP_ITERATE_ALL, arg_dat(w, OPP_READ),
                 arg_dat(acc, p2c, OPP_INC))
    st = mp_ctx.perf.get("DirtyDeposit")
    assert st.extras["decomposition"] == "block"
    assert mp_ctx.backend.stats["segment_loops"] == 0
