"""The ``mp`` backend: true shared-memory multiprocess execution.

These tests force the parallel path with ``min_chunk=1`` so even tiny
test sets are split across workers, and check the graceful-degradation
paths (``nworkers=1``, unresolvable kernels) fall back to ``vec``.
"""
import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro.backends import available_backends, make_backend
from repro.backends.mp import MpBackend
from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ, OPP_RW,
                            OPP_WRITE, Context, arg_dat, arg_gbl, decl_dat,
                            decl_global, decl_map, decl_particle_set,
                            decl_set, par_loop, particle_move, push_context)
from repro.core.kernel import Kernel, kernel_from_ref, kernel_ref

MP_OPTS = {"nworkers": 2, "min_chunk": 1}


def saxpy_kernel(x, y):
    y[0] = y[0] + 2.5 * x[0]
    y[1] = y[1] - x[1]


def deposit2_kernel(w, a, b):
    a[0] += w[0]
    b[0] += w[0] * 0.5


def walk_kernel(move, p):
    lo = move.cell * 1.0
    if p[0] < lo:
        move.move_to(move.c2c[0])
    elif p[0] >= lo + 1.0:
        move.move_to(move.c2c[1])
    else:
        move.done()


def build_deposit_world(seed, n_parts):
    rng = np.random.default_rng(seed)
    cells = decl_set(6)
    nodes = decl_set(8)
    parts = decl_particle_set(cells, n_parts)
    c2n = decl_map(cells, nodes, 2, rng.integers(0, 8, size=(6, 2)))
    p2c = decl_map(parts, cells, 1, rng.integers(0, 6, size=(n_parts, 1)))
    w = decl_dat(parts, 1, np.float64, rng.normal(size=n_parts))
    nd = decl_dat(nodes, 1, np.float64)
    return parts, c2n, p2c, w, nd


@pytest.fixture
def mp_ctx():
    ctx = Context("mp", **MP_OPTS)
    yield ctx
    ctx.backend.close()


def energy_kernel(x, e):
    e[0] += x[0] * x[0] + x[1] * x[1]


def test_mp_backend_registered():
    assert "mp" in available_backends()
    be = make_backend("mp", nworkers=2)
    assert isinstance(be, MpBackend)
    be.close()


def test_direct_rw_matches_expected(mp_ctx):
    with push_context(mp_ctx):
        s = decl_set(301)   # odd size: uneven block-aligned chunks
        x = decl_dat(s, 2, np.float64, np.arange(602.0).reshape(301, 2))
        y = decl_dat(s, 2, np.float64, np.ones((301, 2)))
        par_loop(saxpy_kernel, "saxpy", s, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_dat(y, OPP_RW))
        expected = np.ones((301, 2))
        expected[:, 0] += 2.5 * np.arange(602.0).reshape(301, 2)[:, 0]
        expected[:, 1] -= np.arange(602.0).reshape(301, 2)[:, 1]
        np.testing.assert_allclose(y.data, expected)
    assert mp_ctx.backend.stats["parallel_loops"] == 1
    assert mp_ctx.backend.stats["fallback_loops"] == 0


def test_indirect_inc_scatter_merge_matches_seq(mp_ctx):
    with push_context(Context("seq")):
        parts, c2n, p2c, w, nd = build_deposit_world(7, 64)
        par_loop(deposit2_kernel, "dep", parts, OPP_ITERATE_ALL,
                 arg_dat(w, OPP_READ),
                 arg_dat(nd, 0, c2n, p2c, OPP_INC),
                 arg_dat(nd, 1, c2n, p2c, OPP_INC))
        expected = nd.data.copy()
    with push_context(mp_ctx):
        parts, c2n, p2c, w, nd = build_deposit_world(7, 64)
        par_loop(deposit2_kernel, "dep", parts, OPP_ITERATE_ALL,
                 arg_dat(w, OPP_READ),
                 arg_dat(nd, 0, c2n, p2c, OPP_INC),
                 arg_dat(nd, 1, c2n, p2c, OPP_INC))
        np.testing.assert_allclose(nd.data, expected, rtol=1e-12,
                                   atol=1e-12)
    assert mp_ctx.backend.stats["parallel_loops"] == 1
    st = mp_ctx.perf.get("dep")
    assert st.extras["strategy"] == "scatter_arrays"
    assert st.extras["nworkers"] == 2
    assert len(st.worker_seconds) == 2
    assert st.load_imbalance >= 1.0


def test_global_reduction_matches_seq(mp_ctx):
    vals = np.random.default_rng(3).normal(size=(130, 2))
    with push_context(Context("seq")):
        s = decl_set(130)
        x = decl_dat(s, 2, np.float64, vals)
        e = decl_global(1, np.float64)
        par_loop(energy_kernel, "energy", s, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_gbl(e, OPP_INC))
        expected = e.value
    with push_context(mp_ctx):
        s = decl_set(130)
        x = decl_dat(s, 2, np.float64, vals)
        e = decl_global(1, np.float64)
        par_loop(energy_kernel, "energy", s, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_gbl(e, OPP_INC))
        assert e.value == pytest.approx(expected, rel=1e-12)
    assert mp_ctx.backend.stats["parallel_loops"] == 1


def test_move_matches_seq(mp_ctx):
    rng = np.random.default_rng(11)
    n_cells, n_parts = 8, 120
    positions = rng.uniform(-1.0, n_cells + 1.0, size=n_parts)
    starts = rng.integers(0, n_cells, size=n_parts)

    results = {}
    for name, ctx in (("seq", Context("seq")), ("mp", mp_ctx)):
        with push_context(ctx):
            cells = decl_set(n_cells)
            c2c = decl_map(cells, cells, 2,
                           [[i - 1, i + 1 if i + 1 < n_cells else -1]
                            for i in range(n_cells)])
            parts = decl_particle_set(cells, n_parts)
            p2c = decl_map(parts, cells, 1, starts.reshape(-1, 1))
            pos = decl_dat(parts, 1, np.float64, positions)
            res = particle_move(walk_kernel, "walk", parts, c2c, p2c,
                                arg_dat(pos, OPP_READ))
            results[name] = (res.n_removed,
                             sorted(zip(pos.data[:, 0], p2c.p2c.tolist())))
    assert results["seq"] == results["mp"] or (
        results["seq"][0] == results["mp"][0]
        and np.allclose([p for p, _ in results["seq"][1]],
                        [p for p, _ in results["mp"][1]])
        and [c for _, c in results["seq"][1]]
        == [c for _, c in results["mp"][1]])
    assert mp_ctx.backend.stats["parallel_moves"] == 1
    assert mp_ctx.perf.get("walk").worker_seconds


def test_nworkers_one_degrades_to_vec():
    ctx = Context("mp", nworkers=1)
    with push_context(ctx):
        s = decl_set(40)
        x = decl_dat(s, 2, np.float64, np.arange(80.0).reshape(40, 2))
        y = decl_dat(s, 2, np.float64)
        par_loop(saxpy_kernel, "saxpy", s, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_dat(y, OPP_RW))
        assert np.isfinite(y.data).all()
    assert ctx.backend.stats["fallback_loops"] == 1
    assert ctx.backend.stats["parallel_loops"] == 0
    assert ctx.perf.get("saxpy").extras.get("mp_fallback") is True
    assert ctx.backend._pool is None   # never even forked
    ctx.backend.close()


def test_unresolvable_kernel_degrades_to_vec(mp_ctx):
    def local_kernel(x, y):        # nested def: no importable reference
        y[0] = x[0] * 3.0

    with push_context(mp_ctx):
        s = decl_set(64)
        x = decl_dat(s, 1, np.float64, np.arange(64.0))
        y = decl_dat(s, 1, np.float64)
        par_loop(local_kernel, "local", s, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_dat(y, OPP_WRITE))
        np.testing.assert_allclose(y.data[:, 0], np.arange(64.0) * 3.0)
    assert mp_ctx.backend.stats["fallback_loops"] == 1


def test_small_loops_stay_local():
    ctx = Context("mp", nworkers=2)   # default min_chunk=512
    with push_context(ctx):
        s = decl_set(10)
        x = decl_dat(s, 2, np.float64)
        y = decl_dat(s, 2, np.float64)
        par_loop(saxpy_kernel, "saxpy", s, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_dat(y, OPP_RW))
    assert ctx.backend.stats["fallback_loops"] == 1
    assert ctx.backend._pool is None
    ctx.backend.close()


def test_capacity_grow_readopts_shared_buffer(mp_ctx):
    with push_context(mp_ctx):
        cells = decl_set(4)
        parts = decl_particle_set(cells, 32)
        decl_map(parts, cells, 1, np.zeros((32, 1), dtype=np.int64))
        x = decl_dat(parts, 1, np.float64, np.ones(32))
        y = decl_dat(parts, 1, np.float64)
        par_loop(saxpy_kernel_1d, "s1", parts, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_dat(y, OPP_RW))
        first = y.data.copy()
        # force reallocation well past the shared segment's capacity
        sl = parts.add_particles(4 * parts.capacity,
                                 cell_indices=np.zeros(4 * parts.capacity,
                                                       dtype=np.int64))
        x.data[sl] = 2.0
        par_loop(saxpy_kernel_1d, "s1", parts, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_dat(y, OPP_RW))
        np.testing.assert_allclose(y.data[:32, 0], first[:, 0] + 2.5)
        np.testing.assert_allclose(y.data[32:, 0], 5.0)
    assert mp_ctx.backend.stats["parallel_loops"] == 2


def saxpy_kernel_1d(x, y):
    y[0] = y[0] + 2.5 * x[0]


def test_close_is_idempotent_and_reentrant(mp_ctx):
    with push_context(mp_ctx):
        s = decl_set(64)
        x = decl_dat(s, 1, np.float64, np.arange(64.0))
        y = decl_dat(s, 1, np.float64)
        par_loop(saxpy_kernel_1d, "s1", s, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_dat(y, OPP_RW))
        before = y.data.copy()
        mp_ctx.backend.close()
        mp_ctx.backend.close()          # idempotent
        np.testing.assert_allclose(y.data, before)   # buffers survive
        par_loop(saxpy_kernel_1d, "s1", s, OPP_ITERATE_ALL,
                 arg_dat(x, OPP_READ), arg_dat(y, OPP_RW))   # pool revives
        np.testing.assert_allclose(y.data[:, 0],
                                   before[:, 0] + 2.5 * np.arange(64.0))


# -- kernel reference plumbing (what makes kernels cross processes) ----------


def test_kernel_ref_roundtrip():
    ref = kernel_ref(saxpy_kernel_1d)
    assert ref == (__name__, "saxpy_kernel_1d")
    kern = kernel_from_ref(*ref)
    assert kern.fn is saxpy_kernel_1d
    # cached: same Kernel object on repeat resolution
    assert kernel_from_ref(*ref) is kern


def test_kernel_ref_rejects_locals():
    def nested(x):
        x[0] = 0.0
    assert kernel_ref(nested) is None
    assert kernel_ref(lambda x: x) is None


def test_kernel_pickles_by_reference():
    kern = Kernel(saxpy_kernel_1d)
    clone = pickle.loads(pickle.dumps(kern))
    assert clone.fn is saxpy_kernel_1d
    with pytest.raises(pickle.PicklingError):
        def nested(x):
            x[0] = 0.0
        pickle.dumps(Kernel(nested))


# -- arena scatter cache vs CPython id reuse ---------------------------------


def test_arena_scatter_survives_id_reuse_with_different_shape():
    """Scatter segments are keyed by (id(dat), worker); CPython reuses
    object ids, so a key hit can be a different dat whose component
    count differs — the arena must recreate, never hand back a segment
    of the wrong shape (this surfaced as a nondeterministic np.add.at
    broadcast failure in the conformance sweep)."""
    from repro.backends.mp import _Arena, _shared_memory

    if _shared_memory() is None:
        pytest.skip("platform lacks shared memory")

    class FakeDat:
        def __init__(self, shape):
            self.raw = np.zeros(shape, dtype=np.float64)

    arena = _Arena()
    try:
        wide = FakeDat((8, 2))
        spec = arena.scatter(wide, 0)
        assert tuple(spec[1]) == (8, 2)
        # simulate id reuse: a narrower dat lands on the same cache key
        narrow = FakeDat((8, 1))
        arena._scatter[(id(narrow), 0)] = \
            arena._scatter.pop((id(wide), 0))
        spec2 = arena.scatter(narrow, 0)
        assert tuple(spec2[1]) == (8, 1)
        # growth still reuses-by-recreate, larger capacity wins
        grown = FakeDat((16, 1))
        arena._scatter[(id(grown), 0)] = \
            arena._scatter.pop((id(narrow), 0))
        assert tuple(arena.scatter(grown, 0)[1]) == (16, 1)
    finally:
        arena.close()


# -- worker death ------------------------------------------------------------


def test_killed_worker_fails_the_wait_at_once():
    """A worker SIGKILLed while the master waits on a loop's chunks is an
    EOF on its pipe: the wait raises at once, not at a periodic poll."""
    from repro.backends.mp import _Pool
    pool = _Pool(2)
    delay = 0.2
    killer = threading.Timer(delay, os.kill,
                             (pool.procs[0].pid, signal.SIGKILL))
    try:
        killer.start()
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="died"):
            pool.collect(1)
        noticed = time.monotonic() - t0 - delay
    finally:
        killer.join()
        pool.close()
    assert noticed < 0.5
