"""Vectorised backend: runs translator-generated batch kernels.

The driver implements the gather → generated-kernel → scatter execution
plan.  Race handling for indirect increments is pluggable
(:mod:`repro.backends.reduction`), which is exactly how the OpenMP and
GPU backends below specialise this driver.

Particle moves run as a *frontier* loop: every still-moving particle
advances one hop per round through the generated (predicated) move kernel;
finished / removed / migrating particles drop out of the frontier.  This
is the SIMT formulation of OP-PIC's multi-hop move.
"""
from __future__ import annotations

from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from ..core.args import Arg, ArgKind
from ..core.loops import ParLoop
from ..core.move import MoveLoop, MoveResult
from ..core.types import AccessMode, MoveStatus
from .base import Backend
from .locality import LocalityAutotuner
from .plan import PlanCache
from .reduction import (ReductionStrategy, SegmentedPresorted,
                        make_strategy)
from .seq import SeqBackend
from .sparse_ops import have_scipy

__all__ = ["VecBackend"]


class VecBackend(Backend):
    """Generated-code backend with a configurable reduction strategy."""

    name = "vec"

    def __init__(self, strategy: str = "atomics",
                 check_unique_writes: bool = False,
                 locality: str = "never", sparse: str = "never",
                 **strategy_options):
        self.strategy_name = strategy
        self.strategy: ReductionStrategy = make_strategy(strategy,
                                                         **strategy_options)
        #: debug mode: make the duplicate-row assertion of
        #: :meth:`Backend.scatter` real — indirect WRITE/RW through a
        #: non-injective mapping is last-writer-wins and backend-ordering
        #: dependent, so fail loudly instead of racing silently
        self.check_unique_writes = bool(check_unique_writes)
        #: OP2-style plan cache: static mesh-map indirection schedules
        #: plus the maintained Matrix-PIC operators
        self.plan = PlanCache()
        #: the particle-locality engine; opt-in (``locality="auto"`` /
        #: ``"always"``) because sorting permutes particle storage order.
        #: ``sparse`` arbitrates the Matrix-PIC operator per loop the same
        #: way (never = off and bit-stable, always = force, auto = EWMA)
        self.locality = LocalityAutotuner(mode=locality, sparse=sparse)
        self._seq = SeqBackend()

    # -- the Matrix-PIC sparse-operator path --------------------------------------

    def _arg_operator(self, a: Arg):
        """The maintained CSR operator addressing this P2C/DOUBLE arg."""
        if a.kind == ArgKind.DOUBLE:
            return self.plan.sparse_operator(a.p2c, map_=a.map,
                                             map_idx=a.map_idx)
        return self.plan.sparse_operator(a.p2c)

    def _sparse_select(self, loop, fastseg, n: int):
        """Per-loop strategy election for the sparse-operator engine.

        Returns ``None`` when the Matrix-PIC path cannot apply (sparse
        mode off and strategy not forced, non-particle loop, windowed
        iteration, no scipy, no eligible float64 P2C/DOUBLE traffic);
        otherwise a dict naming the chosen gather/deposit arm —
        ``"sparse_csr"`` vs the baseline — plus the dead-row indices the
        deposit must zero before the product (the operator gives dead
        rows zero weight, but ``0 · non-finite`` would still poison the
        sum) and whether to feed timings back into the autotuner.
        """
        forced = self.strategy_name == "sparse_csr"
        if not forced and self.locality.sparse == "never":
            return None
        pset = loop.iterset
        if not pset.is_particle_set or pset.p2c_map is None:
            return None
        if not (loop.start == 0 and loop.end == pset.size):
            return None       # operator rows cover the whole set
        if not have_scipy():
            return None
        has_g = has_d = False
        for a in loop.args:
            if a.is_global or a.kind not in (ArgKind.P2C, ArgKind.DOUBLE) \
                    or a.dat.dtype != np.float64:
                continue
            has_g |= a.access is AccessMode.READ
            has_d |= a.access is AccessMode.INC
        if not (has_g or has_d):
            return None
        dead = np.flatnonzero(pset.p2c_map.p2c < 0)
        sel = {"gather": None, "deposit": None,
               "dead_rows": dead if dead.size else None, "timing": False}
        if forced:
            # dead rows gather data[-1] on the indexed path (the seq
            # oracle's wrap) but 0.0 through P — keep them off the
            # sparse gather so dead-lane direct writes stay comparable
            sel["gather"] = ("sparse_csr" if has_g and not dead.size
                             else "indexed" if has_g else None)
            sel["deposit"] = "sparse_csr" if has_d else None
            return sel
        sel["timing"] = self.locality.sparse == "auto"
        if has_g:
            sel["gather"] = "indexed" if dead.size else \
                self.locality.pick_strategy(loop.name, "gather",
                                            ["indexed", "sparse_csr"], n)
        if has_d:
            base = ("segmented_presorted" if fastseg is not None
                    else self.strategy_name)
            sel["deposit"] = self.locality.pick_strategy(
                loop.name, "deposit", [base, "sparse_csr"], n)
        return sel

    # -- the sort-aware fast path -------------------------------------------------

    def _locality_segments(self, loop):
        """Cached per-cell segment offsets when the sorted fast path
        applies to this loop, else None.  May trigger an autotuned
        re-sort (recorded as a ``SortParticles`` pseudo-loop)."""
        if not self.locality.enabled:
            return None
        pset = loop.iterset
        if not pset.is_particle_set or pset.p2c_map is None:
            return None
        if not (loop.start == 0 and loop.end == pset.size):
            return None       # injected-only / windowed loops
        if not any(a.kind in (ArgKind.P2C, ArgKind.DOUBLE)
                   for a in loop.args):
            return None       # nothing addressed through the cell
        order = pset.order
        if not order.is_valid():
            if not self.locality.should_sort(pset.size):
                return None
            from ..core.particles import sort_particles_by_cell
            t0 = perf_counter()
            sort_particles_by_cell(pset)
            dt = perf_counter() - t0
            self.locality.note_sort(pset.size, dt)
            self._record_sort(pset, dt)
            if not order.is_valid():
                return None   # e.g. dead (-1) rows sorted to the front
        return self.plan.segments(pset)

    @staticmethod
    def _record_sort(pset, seconds: float) -> None:
        from ..core.context import get_context
        get_context().perf.record_loop("SortParticles", n=pset.size,
                                       seconds=seconds, indirect_inc=False,
                                       locality_sort=True)

    # -- opp_par_loop -----------------------------------------------------------

    def execute(self, loop: ParLoop) -> Optional[dict]:
        if loop.n_iter == 0:
            return None
        gen = loop.kernel.generated("vec")
        if not gen.vectorized:
            self._seq.execute(loop)
            return {"fallback": True}

        fastseg = self._locality_segments(loop)
        track = self.locality.enabled and loop.iterset.is_particle_set
        t_start = perf_counter() if track else 0.0

        full = loop.start == 0 and loop.end == loop.iterset.size
        idx = loop.iter_indices()
        params: List[np.ndarray] = []
        writeback: List[Tuple[Arg, np.ndarray, Optional[np.ndarray]]] = []
        n = idx.size
        sparse_sel = self._sparse_select(loop, fastseg, n)
        t_gather = t_deposit = 0.0

        for apos, a in enumerate(loop.args):
            if a.is_global:
                if a.access is AccessMode.READ:
                    params.append(a.dat.data.reshape(1, -1))
                else:
                    init = {AccessMode.INC: 0.0, AccessMode.MIN: np.inf,
                            AccessMode.MAX: -np.inf}[a.access]
                    buf = np.full((n, a.dat.dim), init,
                                  dtype=a.dat.data.dtype)
                    params.append(buf)
                    writeback.append((a, buf, None))
                continue
            if a.kind == ArgKind.DIRECT and a.access is AccessMode.READ \
                    and full:
                params.append(a.dat.data)
                continue
            if a.access is AccessMode.READ \
                    and a.kind in (ArgKind.P2C, ArgKind.DOUBLE) \
                    and (fastseg is not None or sparse_sel is not None):
                t0 = perf_counter() if sparse_sel is not None else 0.0
                if sparse_sel is not None \
                        and sparse_sel["gather"] == "sparse_csr" \
                        and a.dat.dtype == np.float64:
                    # Matrix-PIC gather: one CSR SpMM replaces the index
                    # build + fancy gather (unit weights, so the product
                    # is bit-identical to data[rows])
                    buf = self._arg_operator(a).gather(a.dat.data)
                elif fastseg is not None:
                    # sorted fast path: the per-particle indirect gather
                    # is a per-cell broadcast of contiguous segments
                    # (bit-identical values to data[rows], no index array
                    # ever built)
                    counts = fastseg[0]
                    if a.kind == ArgKind.P2C:
                        buf = np.repeat(a.dat.data, counts, axis=0)
                    else:
                        cell_rows = a.map.values[:, a.map_idx]
                        buf = np.repeat(a.dat.data[cell_rows], counts,
                                        axis=0)
                else:
                    buf = self.gather(a, idx)
                if sparse_sel is not None:
                    t_gather += perf_counter() - t0
                params.append(buf)
                continue
            rows = self.plan.rows(loop, a, idx)   # planned (static) or None
            if (self.check_unique_writes and a.is_indirect
                    and a.access in (AccessMode.WRITE, AccessMode.RW)):
                r = rows if rows is not None else a.gather_indices(idx)
                r = r[r >= 0]
                if r.size and np.unique(r).size != r.size:
                    raise RuntimeError(
                        f"loop {loop.name!r}: nonunique-write on arg "
                        f"{apos} (dat {a.dat.name!r}): duplicate indirect "
                        f"{a.access.name} target rows race under vector "
                        "execution (declare OPP_INC or make the mapping "
                        "injective)")
            if a.access in (AccessMode.READ, AccessMode.RW):
                buf = (a.dat.data[rows] if rows is not None
                       else self.gather(a, idx))
            else:  # WRITE / INC start from a clean buffer
                buf = np.zeros((n, a.dat.dim), dtype=a.dat.dtype)
            params.append(buf)
            if a.access.writes:
                writeback.append((a, buf, rows))

        # predication evaluates both branch sides; masked-off lanes may
        # produce invalid intermediates that the np.where discards — the
        # same thing a SIMT machine does — so FP warnings are suppressed
        with np.errstate(invalid="ignore", divide="ignore",
                         over="ignore"):
            gen.fn(*params)

        max_coll = 0
        strategy_used = self.strategy_name
        for a, buf, rows in writeback:
            if a.is_global:
                if a.access is AccessMode.INC:
                    a.dat.data += buf.sum(axis=0)
                elif a.access is AccessMode.MIN:
                    np.minimum(a.dat.data, buf.min(axis=0), out=a.dat.data)
                else:
                    np.maximum(a.dat.data, buf.max(axis=0), out=a.dat.data)
                continue
            if a.kind == ArgKind.DIRECT:
                if a.access is AccessMode.INC:
                    if full:
                        np.add(a.dat.data, buf, out=a.dat.data)
                    else:
                        a.dat.data[idx] += buf
                else:
                    a.dat.data[idx] = buf
                continue
            if a.access is AccessMode.INC \
                    and a.kind in (ArgKind.P2C, ArgKind.DOUBLE) \
                    and (fastseg is not None or sparse_sel is not None):
                t0 = perf_counter() if sparse_sel is not None else 0.0
                if sparse_sel is not None \
                        and sparse_sel["deposit"] == "sparse_csr" \
                        and a.dat.dtype == np.float64:
                    # Matrix-PIC deposit: target += P.T @ buf — one
                    # compiled CSC accumulation, no atomics, no per-loop
                    # sort; same sums as segmented_presorted up to
                    # floating-point reassociation
                    if sparse_sel["dead_rows"] is not None:
                        buf[sparse_sel["dead_rows"]] = 0.0
                    coll = self._arg_operator(a).deposit(a.dat.data, buf)
                    strategy_used = "sparse_csr"
                elif fastseg is not None:
                    # sorted fast path: per-cell segment sums via the
                    # cached reduceat boundaries — no per-loop argsort,
                    # no atomics
                    counts, _offsets, nonempty, starts = fastseg
                    if a.kind == ArgKind.P2C:
                        seg_rows = nonempty
                    else:
                        seg_rows = a.map.values[nonempty, a.map_idx]
                    coll = SegmentedPresorted.apply_segments(
                        a.dat.data, seg_rows, starts, buf, total=n)
                    strategy_used = "segmented_presorted"
                else:
                    coll = self.scatter(a, idx, buf, strategy=self.strategy)
                if sparse_sel is not None:
                    t_deposit += perf_counter() - t0
                max_coll = max(max_coll, coll)
                continue
            if rows is not None:
                if a.access is AccessMode.INC:
                    coll = self.strategy.apply(a.dat.data, rows, buf)
                else:   # WRITE / RW via a static map
                    a.dat.data[rows] = buf
                    coll = 0
            else:
                coll = self.scatter(a, idx, buf, strategy=self.strategy)
            max_coll = max(max_coll, coll)
        if track:
            self.locality.note_loop(n, perf_counter() - t_start,
                                    fast=fastseg is not None)
        if sparse_sel is not None and sparse_sel["timing"]:
            if sparse_sel["gather"] is not None and t_gather > 0.0:
                self.locality.note_strategy_cost(
                    loop.name, "gather", sparse_sel["gather"], n, t_gather)
            if sparse_sel["deposit"] is not None and t_deposit > 0.0:
                self.locality.note_strategy_cost(
                    loop.name, "deposit", sparse_sel["deposit"], n,
                    t_deposit)
        extras = {"collisions": max_coll, "strategy": strategy_used}
        if fastseg is not None:
            extras["locality_fast_path"] = True
        if sparse_sel is not None and (sparse_sel["gather"] == "sparse_csr"
                                       or sparse_sel["deposit"]
                                       == "sparse_csr"):
            extras["sparse_operator"] = True
        return extras

    # -- opp_particle_move --------------------------------------------------------

    def execute_move(self, loop: MoveLoop) -> MoveResult:
        gen = loop.kernel.generated("vec")
        if not gen.vectorized:
            return self._seq.execute_move(loop)
        dep = loop.deposit
        dep_gen = None
        if dep is not None:
            dep_gen = dep.kernel.generated("vec")
            if not dep_gen.vectorized:
                return self._seq.execute_move(loop)

        from ..translator.codegen import VecMoveContext

        p2c = loop.p2c_map.p2c
        c2c = loop.c2c_map.values
        foreign = loop.foreign_cell_mask

        idx = loop.iter_indices()
        alive = p2c[idx] >= 0
        active = idx[alive]
        cells = p2c[active].copy()

        result = MoveResult()
        removed_parts: List[np.ndarray] = []
        foreign_parts: List[np.ndarray] = []
        foreign_cells: List[np.ndarray] = []
        total_hops = 0
        max_coll = 0
        relocated = 0
        hop = 0

        while active.size:
            if hop >= loop.max_hops:
                raise RuntimeError(
                    f"{active.size} particles exceeded {loop.max_hops} hops "
                    f"in move loop {loop.name!r}")
            if foreign is not None:
                fmask = foreign[cells]
                if fmask.any():
                    stopped = active[fmask]
                    p2c[stopped] = cells[fmask]
                    foreign_parts.append(stopped)
                    foreign_cells.append(cells[fmask])
                    active = active[~fmask]
                    cells = cells[~fmask]
                    if active.size == 0:
                        break

            params: List[np.ndarray] = []
            writeback: List[Tuple[Arg, np.ndarray, np.ndarray]] = []
            for a in loop.args:
                if a.is_global:
                    params.append(a.dat.data.reshape(1, -1))
                    continue
                rows = a.gather_indices(active, cells)
                if a.access in (AccessMode.READ, AccessMode.RW):
                    buf = a.dat.data[rows]
                else:
                    buf = np.zeros((active.size, a.dat.dim), dtype=a.dat.dtype)
                params.append(buf)
                if a.access.writes:
                    writeback.append((a, buf, rows))

            mctx = VecMoveContext(cells, c2c[cells], hop)
            with np.errstate(invalid="ignore", divide="ignore",
                             over="ignore"):
                gen.fn(mctx, *params)
            total_hops += active.size

            for a, buf, rows in writeback:
                if a.access is AccessMode.INC:
                    if a.kind == ArgKind.DIRECT:
                        a.dat.data[rows] += buf   # particle rows are unique
                    else:
                        coll = self.strategy.apply(a.dat.data, rows, buf)
                        max_coll = max(max_coll, coll)
                else:
                    a.dat.data[rows] = buf

            status = mctx.status
            done = status == int(MoveStatus.MOVE_DONE)
            gone = status == int(MoveStatus.NEED_REMOVE)
            moving = status == int(MoveStatus.NEED_MOVE)
            if hop == 0:
                # particles still walking (or leaving) after the first hop
                # end up outside their original cell segment
                relocated = int(np.count_nonzero(moving)) \
                    + int(np.count_nonzero(gone))

            if dep_gen is not None:
                # deposit for the particles that settled this round
                dpart, dcells = active[done], cells[done]
                if dpart.size:
                    coll = self._run_move_deposit(dep, dep_gen, dpart,
                                                  dcells)
                    max_coll = max(max_coll, coll)

            p2c[active[done]] = cells[done]
            if gone.any():
                dead = active[gone]
                p2c[dead] = -1
                removed_parts.append(dead)
            active = active[moving]
            cells = mctx.next_cell[moving]
            hop += 1

        loop.pset.order.note_relocated(relocated)
        result.total_hops = total_hops
        result.max_collisions = max_coll
        result.foreign_particles = (np.concatenate(foreign_parts)
                                    if foreign_parts
                                    else np.empty(0, dtype=np.int64))
        result.foreign_cells = (np.concatenate(foreign_cells)
                                if foreign_cells
                                else np.empty(0, dtype=np.int64))
        removed = (np.concatenate(removed_parts) if removed_parts
                   else np.empty(0, dtype=np.int64))
        result.n_removed = int(removed.size)
        if removed.size and not loop.defer_removal:
            loop.pset.remove_particles(removed)
        else:
            result.removed_indices = removed
        return result

    def _run_move_deposit(self, dep, gen, part_idx: np.ndarray,
                          cells: np.ndarray) -> int:
        """One fused-deposit round over the given frontier lanes."""
        params: List[np.ndarray] = []
        writeback: List[Tuple[Arg, np.ndarray, np.ndarray]] = []
        for a in dep.args:
            if a.is_global:
                params.append(a.dat.data.reshape(1, -1))
                continue
            rows = a.gather_indices(part_idx, cells)
            if a.access in (AccessMode.READ, AccessMode.RW):
                buf = a.dat.data[rows]
            else:
                buf = np.zeros((part_idx.size, a.dat.dim),
                               dtype=a.dat.dtype)
            params.append(buf)
            if a.access.writes:
                writeback.append((a, buf, rows))
        with np.errstate(invalid="ignore", divide="ignore",
                         over="ignore"):
            gen.fn(*params)
        max_coll = 0
        for a, buf, rows in writeback:
            if a.access is AccessMode.INC:
                if a.kind == ArgKind.DIRECT:
                    a.dat.data[rows] += buf   # particle rows are unique
                else:
                    coll = self.strategy.apply(a.dat.data, rows, buf)
                    max_coll = max(max_coll, coll)
            else:
                a.dat.data[rows] = buf
        return max_coll
