"""Distributed-op mode of the differential conformance harness.

The single-process harness (:mod:`repro.verify.conformance`) checks that
every backend computes what the ``seq`` oracle computes.  This module
checks the orthogonal guarantee of the *distributed* runtime: that
partitioning a program over N ranks — halo pushes and reductions,
multi-hop particle migration, the direct-hop global move — leaves the
assembled global state identical to running the very same program on a
single rank.

The recipe mirrors the backend harness:

1. a seed-driven generator builds randomized 1-D chain mini-worlds
   (cell ``i`` spans ``[i, i+1)``) plus loop programs drawn from a
   catalog that covers every distributed exchange pattern: owner→ghost
   pushes before indirect READs, ghost→owner reductions after indirect
   INCs (for both cell and node dats), global reductions, the multi-hop
   ``mpi_particle_move`` and the DH global move over a synthetic
   structured overlay;
2. the program runs partitioned on 2–3 ranks (over the simulated
   transport or over real rank processes) and unpartitioned on 1 rank —
   the oracle — and the *assembled* global state (owned dat rows
   scattered back to global ids, particles keyed by a persistent id,
   collective-reduction histories, removal counts) is compared;
3. on a mismatch the harness's one greedy shrinker
   (:func:`~repro.verify.conformance.shrink_case`) minimises the case —
   dropping ops, shrinking mesh/particles, reducing the rank count — and
   the failure
   names the minimal case plus a one-command reproduction.

Every case is fully derived from its integer seed, so
``repro verify --dist-conformance --seed S --cases 1`` replays exactly
the failing case.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_MAX, OPP_MIN,
                        OPP_READ, OPP_RW, Context, arg_dat, arg_gbl,
                        decl_dat, decl_global, decl_map,
                        decl_particle_set, decl_set, par_loop,
                        push_context)
from ..mesh.overlay import StructuredOverlay
from ..runtime.comm import SimComm
from ..runtime.dh import DirectHopGlobalMover
from ..runtime.exchange import mpi_particle_move
from ..runtime.halo import (build_rank_meshes, push_cell_halos,
                            push_node_halos, reduce_cell_halos,
                            reduce_node_halos)
from . import kernels as K
from .conformance import compare_states, shrink_case

__all__ = ["DistCase", "DistConformanceFailure", "generate_dist_case",
           "run_dist_case", "run_dist_conformance",
           "DIST_OP_NAMES"]


class DistCase:
    """One generated distributed scenario, fully determined by its fields."""

    __slots__ = ("seed", "n_cells", "n_nodes", "arity", "n_parts",
                 "nranks", "program")

    def __init__(self, seed: int, n_cells: int, n_nodes: int, arity: int,
                 n_parts: int, nranks: int, program: Tuple[str, ...]):
        self.seed = int(seed)
        self.n_cells = int(n_cells)
        self.n_nodes = int(n_nodes)
        self.arity = int(arity)
        self.n_parts = int(n_parts)
        self.nranks = int(nranks)
        self.program = tuple(str(p) for p in program)

    def replace(self, **kw) -> "DistCase":
        fields = {s: getattr(self, s) for s in self.__slots__}
        fields.update(kw)
        return DistCase(**fields)

    def to_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}

    def signature(self) -> str:
        return (f"seed={self.seed} cells={self.n_cells} "
                f"nodes={self.n_nodes} arity={self.arity} "
                f"parts={self.n_parts} ranks={self.nranks} "
                f"program=[{', '.join(self.program)}]")

    def shrink_candidates(self):
        """Smaller variants of this case for
        :func:`~repro.verify.conformance.shrink_case`; every rank keeps
        at least one chain cell."""
        if len(self.program) > 1:
            for i in range(len(self.program)):
                yield self.replace(program=self.program[:i]
                                   + self.program[i + 1:])
        if self.nranks > 2:
            yield self.replace(nranks=self.nranks - 1)
        if self.n_parts > 4:
            yield self.replace(n_parts=max(4, self.n_parts // 2))
            yield self.replace(n_parts=self.n_parts - 1)
        if self.n_cells > max(4, self.nranks):
            yield self.replace(n_cells=self.n_cells - 1)
        if self.n_nodes > 4:
            yield self.replace(n_nodes=self.n_nodes - 1)
        if self.arity > 2:
            yield self.replace(arity=self.arity - 1)

    def __repr__(self) -> str:
        return f"<DistCase {self.signature()}>"


def generate_dist_case(seed: int) -> DistCase:
    """Derive a randomized distributed case from a seed (deterministic)."""
    rng = np.random.default_rng(seed)
    nranks = int(rng.integers(2, 4))
    # every rank must own at least one chain cell
    n_cells = int(rng.integers(2 * nranks, 15))
    n_nodes = int(rng.integers(4, 10))
    arity = int(rng.integers(2, 5))
    n_parts = int(rng.integers(8, 73))
    length = int(rng.integers(3, 7))
    program = tuple(rng.choice(DIST_OP_NAMES, size=length))
    return DistCase(seed, n_cells, n_nodes, arity, n_parts, nranks,
                    program)


# -- world construction --------------------------------------------------------


def _global_arrays(case: DistCase) -> dict:
    """The unpartitioned world, drawn in a fixed order so every rank (and
    the 1-rank oracle) derives bit-identical initial data from the seed."""
    rng = np.random.default_rng(case.seed)
    n = case.n_cells
    g = {
        "c2n": rng.integers(0, case.n_nodes, size=(n, case.arity)),
        "cell_src": rng.normal(size=n),
        "node_a": rng.normal(size=(case.n_nodes, 2)),
        "node_b": rng.normal(size=case.n_nodes),
        "part_cell": rng.integers(0, n, size=case.n_parts),
        "pos_x": rng.uniform(-1.0, n + 1.0, size=case.n_parts),
        "w": rng.normal(size=(case.n_parts, 2)),
        "pid": np.arange(case.n_parts, dtype=np.int64),
    }
    # 1-D chain adjacency: walking off either end removes the particle
    g["c2c"] = np.array([[i - 1 if i > 0 else -1,
                          i + 1 if i + 1 < n else -1] for i in range(n)],
                        dtype=np.int64)
    # clamp-neighbour map: targets stay on the chain, so a boundary-owned
    # cell's neighbour is a *halo* cell on a partitioned run
    idx = np.arange(n, dtype=np.int64)
    g["clamp"] = np.stack([np.maximum(idx - 1, 0),
                           np.minimum(idx + 1, n - 1)], axis=1)
    # contiguous block partition (each rank gets >= 1 cell)
    g["cell_owner"] = (idx * case.nranks) // n
    return g


class _DistRank:
    """One rank's DSL declarations of the partitioned mini-world."""

    def __init__(self, r: int, case: DistCase, g: dict, rank_mesh,
                 seed_particles: bool = True):
        self.ctx = Context("seq")
        self.rm = rank_mesh
        cg = rank_mesh.cells_global
        ng = rank_mesh.nodes_global

        self.cells = decl_set(rank_mesh.n_local_cells, f"dcells_r{r}")
        self.cells.owned_size = rank_mesh.n_owned_cells
        self.nodes = decl_set(rank_mesh.n_local_nodes, f"dnodes_r{r}")
        self.nodes.owned_size = rank_mesh.n_owned_nodes
        # declare-only mode (seed_particles=False) rebuilds the DSL
        # objects for a live repartition; the migration engine then
        # fills in the dynamic state
        mine = np.flatnonzero(g["cell_owner"][g["part_cell"]] == r) \
            if seed_particles else np.empty(0, dtype=np.int64)
        self.parts = decl_particle_set(self.cells, mine.size,
                                       f"dparts_r{r}")

        g2l = np.full(case.n_cells, -1, dtype=np.int64)
        g2l[cg] = np.arange(cg.size)
        self.c2n = decl_map(self.cells, self.nodes, case.arity,
                            rank_mesh.local_c2n, f"dc2n_r{r}")
        self.c2c = decl_map(self.cells, self.cells, 2,
                            rank_mesh.local_c2c, f"dc2c_r{r}")
        # owned cells' clamp neighbours are always local (they are chain
        # face-neighbours, i.e. in the halo); halo rows may point off the
        # local patch but are never dereferenced — particles only ever
        # sit in owned cells outside a move — so park those on self
        lclamp = np.where(g2l[g["clamp"][cg]] >= 0, g2l[g["clamp"][cg]],
                          np.arange(cg.size)[:, None])
        self.clamp = decl_map(self.cells, self.cells, 2, lclamp,
                              f"dclamp_r{r}")
        self.p2c = decl_map(self.parts, self.cells, 1,
                            g2l[g["part_cell"][mine]].reshape(-1, 1),
                            f"dp2c_r{r}")

        self.cell_src = decl_dat(self.cells, 1, np.float64,
                                 g["cell_src"][cg], "dcell_src")
        # geometry: each chain cell's global lower x — the walk kernel
        # must read this (local ids != global ids on a partitioned mesh)
        self.cell_lo = decl_dat(self.cells, 1, np.float64,
                                cg.astype(np.float64), "dcell_lo")
        self.cell_acc = decl_dat(self.cells, 1, np.float64, None,
                                 "dcell_acc")
        self.cell_hits = decl_dat(self.cells, 1, np.int64, None,
                                  "dcell_hits")
        self.node_a = decl_dat(self.nodes, 2, np.float64,
                               g["node_a"][ng], "dnode_a")
        self.node_b = decl_dat(self.nodes, 1, np.float64,
                               g["node_b"][ng], "dnode_b")
        # dim-3 positions so the DH overlay can bin them; the walk and
        # the chain geometry only use the x component
        pos = np.column_stack([g["pos_x"][mine],
                               np.full(mine.size, 0.5),
                               np.full(mine.size, 0.5)])
        self.pos = decl_dat(self.parts, 3, np.float64, pos, "dpos")
        self.w = decl_dat(self.parts, 2, np.float64, g["w"][mine], "dw")
        self.out = decl_dat(self.parts, 2, np.float64,
                            np.ones((mine.size, 2)), "dout")
        self.pid = decl_dat(self.parts, 1, np.int64, g["pid"][mine],
                            "dpid")
        self.g_sum = decl_global(1, np.float64, None, "dg_sum")
        self.g_min = decl_global(1, np.float64, [np.inf], "dg_min")
        self.g_max = decl_global(1, np.float64, [-np.inf], "dg_max")


def _build_dist_world(case: DistCase, comm) -> dict:
    g = _global_arrays(case)
    meshes, plan = build_rank_meshes(g["c2c"], g["cell_owner"],
                                     comm.nranks, c2n=g["c2n"])
    ranks: List[Optional[_DistRank]] = [
        _DistRank(r, case, g, meshes[r]) if comm.is_local(r) else None
        for r in range(comm.nranks)]
    # synthetic structured overlay over the chain: bin i == cell i, so
    # the DH guess is exact and rank-independent
    overlay = StructuredOverlay(
        lo=[0.0, 0.0, 0.0], hi=[float(case.n_cells), 1.0, 1.0],
        dims=[case.n_cells, 1, 1],
        cell_map=np.arange(case.n_cells, dtype=np.int64),
        rank_map=g["cell_owner"])
    mover = DirectHopGlobalMover(overlay, comm, plan, meshes)
    return {"case": case, "comm": comm, "plan": plan, "meshes": meshes,
            "ranks": ranks, "mover": mover, "n_removed": 0,
            "g": g, "n_rebalances": 0,
            "g_hist": {"sum": [], "min": [], "max": []}}


def _locals(world: dict):
    return [(r, rk) for r, rk in enumerate(world["ranks"])
            if rk is not None]


def _per_rank(world: dict, pick):
    return [pick(rk) if rk is not None else None
            for rk in world["ranks"]]


def _zero_ghosts(world: dict, attr: str, kind: str) -> None:
    """Ghost rows must be zero before an indirect-INC loop so the
    subsequent reduction folds exactly the new contributions to the
    owner (what the apps do by zeroing accumulators each step)."""
    for _r, rk in _locals(world):
        n_owned = rk.rm.n_owned_cells if kind == "cell" \
            else rk.rm.n_owned_nodes
        getattr(rk, attr).data[n_owned:] = 0


# -- the operation catalog -----------------------------------------------------


def _op_deposit_nodes(world: dict) -> None:
    """Double-indirect node INC then ghost→owner node reduction."""
    _zero_ghosts(world, "node_a", "node")
    _zero_ghosts(world, "node_b", "node")
    arity = world["case"].arity
    for _r, rk in _locals(world):
        with push_context(rk.ctx):
            par_loop(K.k_double_deposit, "d_deposit_nodes", rk.parts,
                     OPP_ITERATE_ALL,
                     arg_dat(rk.w, OPP_READ),
                     arg_dat(rk.node_a, 0, rk.c2n, rk.p2c, OPP_INC),
                     arg_dat(rk.node_b, arity - 1, rk.c2n, rk.p2c,
                             OPP_INC))
    reduce_node_halos(_per_rank(world, lambda rk: rk.node_a),
                      world["plan"], world["comm"])
    reduce_node_halos(_per_rank(world, lambda rk: rk.node_b),
                      world["plan"], world["comm"])


def _op_cell_neighbor_inc(world: dict) -> None:
    """INC into the particle's cell *neighbours* (clamp map ∘ p2c) —
    boundary-owned cells deposit into halo cells, so the ghost→owner
    cell reduction carries real contributions."""
    _zero_ghosts(world, "cell_acc", "cell")
    for _r, rk in _locals(world):
        with push_context(rk.ctx):
            par_loop(K.k_clamp_inc, "d_clamp_inc", rk.parts,
                     OPP_ITERATE_ALL,
                     arg_dat(rk.w, OPP_READ),
                     arg_dat(rk.cell_acc, 0, rk.clamp, rk.p2c, OPP_INC),
                     arg_dat(rk.cell_acc, 1, rk.clamp, rk.p2c, OPP_INC))
    reduce_cell_halos(_per_rank(world, lambda rk: rk.cell_acc),
                      world["plan"], world["comm"])


def _op_cell_push_gather(world: dict) -> None:
    """Owner→ghost cell push, then a gather that reads halo cells."""
    push_cell_halos(_per_rank(world, lambda rk: rk.cell_acc),
                    world["plan"], world["comm"])
    for _r, rk in _locals(world):
        with push_context(rk.ctx):
            par_loop(K.k_clamp_gather, "d_clamp_gather", rk.parts,
                     OPP_ITERATE_ALL,
                     arg_dat(rk.cell_acc, 0, rk.clamp, rk.p2c, OPP_READ),
                     arg_dat(rk.cell_acc, 1, rk.clamp, rk.p2c, OPP_READ),
                     arg_dat(rk.out, OPP_RW))


def _op_node_push_gather(world: dict) -> None:
    """Owner→ghost node push, then a gather through c2n ∘ p2c."""
    push_node_halos(_per_rank(world, lambda rk: rk.node_a),
                    world["plan"], world["comm"])
    for _r, rk in _locals(world):
        with push_context(rk.ctx):
            par_loop(K.k_node_gather, "d_node_gather", rk.parts,
                     OPP_ITERATE_ALL,
                     arg_dat(rk.node_a, 0, rk.c2n, rk.p2c, OPP_READ),
                     arg_dat(rk.out, OPP_RW))


def _op_gbl_reduce(world: dict) -> None:
    """Per-rank global reductions completed by transport allreduces."""
    comm = world["comm"]
    for _r, rk in _locals(world):
        with push_context(rk.ctx):
            par_loop(K.k_gbl_reduce, "d_gbl_reduce", rk.parts,
                     OPP_ITERATE_ALL,
                     arg_dat(rk.w, OPP_READ),
                     arg_gbl(rk.g_sum, OPP_INC),
                     arg_gbl(rk.g_min, OPP_MIN),
                     arg_gbl(rk.g_max, OPP_MAX))
    ranks = world["ranks"]
    s = comm.allreduce([rk.g_sum.data.copy() if rk else np.zeros(1)
                        for rk in ranks], "sum")
    mn = comm.allreduce([rk.g_min.data.copy() if rk
                         else np.full(1, np.inf) for rk in ranks], "min")
    mx = comm.allreduce([rk.g_max.data.copy() if rk
                         else np.full(1, -np.inf) for rk in ranks], "max")
    world["g_hist"]["sum"].append(float(s[0]))
    world["g_hist"]["min"].append(float(mn[0]))
    world["g_hist"]["max"].append(float(mx[0]))


def _op_move(world: dict) -> None:
    """Multi-hop walk with migration; per-hop hit deposition."""
    comm = world["comm"]
    totals = mpi_particle_move(
        comm, world["plan"], world["meshes"],
        _per_rank(world, lambda rk: rk.ctx),
        K.k_walk_geom, "d_move",
        _per_rank(world, lambda rk: rk.parts),
        _per_rank(world, lambda rk: rk.c2c),
        _per_rank(world, lambda rk: rk.p2c),
        _per_rank(world, lambda rk: [
            arg_dat(rk.pos, OPP_READ),
            arg_dat(rk.cell_lo, rk.p2c, OPP_READ),
            arg_dat(rk.cell_hits, rk.p2c, OPP_INC)]),
        _per_rank(world, lambda rk: [rk.pos, rk.w, rk.out, rk.pid]))
    world["n_removed"] += int(comm.allreduce(
        [totals[r].n_removed for r in range(comm.nranks)], "sum"))


def _op_dh_move(world: dict) -> None:
    """Direct-hop global move (RMA rank/cell-map lookups + all-to-all
    relocation) finished by the short multi-hop walk."""
    world["mover"].global_move(
        _per_rank(world, lambda rk: rk.parts),
        _per_rank(world, lambda rk: rk.pos),
        _per_rank(world, lambda rk: rk.p2c),
        _per_rank(world, lambda rk: [rk.pos, rk.w, rk.out, rk.pid]))
    _op_move(world)


class _WorldApp:
    """Adapter giving the conformance world the duck-typed app contract
    the elastic migration engine expects."""

    def __init__(self, world: dict):
        self._world = world
        self.comm = world["comm"]
        self.nranks = self.comm.nranks
        self.meshes = world["meshes"]
        self.plan = world["plan"]
        self.ranks = world["ranks"]
        self.cell_owner = world["g"]["cell_owner"]

    def _build_partition(self, new_owner, nranks=None):
        g = self._world["g"]
        return build_rank_meshes(g["c2c"], new_owner,
                                 nranks if nranks is not None
                                 else self.nranks, c2n=g["c2n"])

    def _rebuild_rank(self, r, rank_mesh, old_rank):
        rk = _DistRank(r, self._world["case"], self._world["g"],
                       rank_mesh, seed_particles=False)
        rk.ctx = old_rank.ctx
        return rk

    def _migration_spec(self):
        # per-rank global accumulators never reset between ops, so they
        # are carried across the repartition rank-for-rank
        return {"cell": ("cell_acc", "cell_hits"),
                "node": ("node_a", "node_b"),
                "part": ("pos", "w", "out", "pid"),
                "globals": ("g_sum", "g_min", "g_max"),
                "c2n": self._world["g"]["c2n"]}

    def _post_rebalance(self):
        w = self._world
        case = w["case"]
        w["meshes"], w["plan"], w["ranks"] = \
            self.meshes, self.plan, self.ranks
        w["g"]["cell_owner"] = np.asarray(self.cell_owner)
        overlay = StructuredOverlay(
            lo=[0.0, 0.0, 0.0], hi=[float(case.n_cells), 1.0, 1.0],
            dims=[case.n_cells, 1, 1],
            cell_map=np.arange(case.n_cells, dtype=np.int64),
            rank_map=w["g"]["cell_owner"])
        w["mover"] = DirectHopGlobalMover(overlay, self.comm, self.plan,
                                          self.meshes)


def _op_rebalance(world: dict) -> None:
    """Live repartition mid-program: shift the chain's slab boundaries
    with a deterministic rotating weight pattern and migrate everything.
    The contract under test: the assembled global state is bit-equal to
    the never-migrated run's."""
    case = world["case"]
    if world["comm"].nranks == 1:
        return                       # the oracle never repartitions
    from ..elastic.migrate import rebalance as elastic_rebalance
    from ..runtime.partition import diffusive
    world["n_rebalances"] += 1
    idx = np.arange(case.n_cells, dtype=np.int64)
    weights = 1.0 + ((idx + world["n_rebalances"]) % 3)
    centroids = np.column_stack([idx + 0.5, np.zeros(case.n_cells),
                                 np.zeros(case.n_cells)])
    new_owner = diffusive(centroids, world["comm"].nranks,
                          weights=weights, axis=0, keys=idx)
    elastic_rebalance(_WorldApp(world), new_owner)


DIST_OPS: Dict[str, Callable[[dict], None]] = {
    "deposit_nodes": _op_deposit_nodes,
    "cell_neighbor_inc": _op_cell_neighbor_inc,
    "cell_push_gather": _op_cell_push_gather,
    "node_push_gather": _op_node_push_gather,
    "gbl_reduce": _op_gbl_reduce,
    "move": _op_move,
    "dh_move": _op_dh_move,
    "rebalance": _op_rebalance,
}
DIST_OP_NAMES = tuple(sorted(DIST_OPS))


# -- execution, assembly, comparison -------------------------------------------


def _rank_contrib(world: dict, r: int) -> dict:
    """One rank's share of the final state: owned dat rows with their
    global ids, resident particles, and the (replicated) collective
    results."""
    rk = world["ranks"][r]
    rm = rk.rm
    noc, non = rm.n_owned_cells, rm.n_owned_nodes
    n = rk.parts.size
    return {
        "rank": r,
        "cell_ids": rm.cells_global[:noc].copy(),
        "cell_acc": rk.cell_acc.data[:noc].copy(),
        "cell_hits": rk.cell_hits.data[:noc].copy(),
        "node_ids": rm.nodes_global[:non].copy(),
        "node_a": rk.node_a.data[:non].copy(),
        "node_b": rk.node_b.data[:non].copy(),
        "pid": rk.pid.data[:n, 0].copy(),
        "p2c": rm.cells_global[rk.p2c.p2c[:n]].copy(),
        "pos": rk.pos.data[:n].copy(),
        "w": rk.w.data[:n].copy(),
        "out": rk.out.data[:n].copy(),
        "n_removed": world["n_removed"],
        "g_hist": {k: list(v) for k, v in world["g_hist"].items()},
    }


def _assemble(case: DistCase, contribs: List[dict]) -> Dict[str, np.ndarray]:
    """Scatter every rank's owned rows back to global numbering.  Rows no
    rank owns (nodes the random c2n never references) keep their initial
    values on every rank count, so they compare clean."""
    g = _global_arrays(case)
    cell_acc = np.zeros((case.n_cells, 1))
    cell_hits = np.zeros((case.n_cells, 1), dtype=np.int64)
    node_a = g["node_a"].copy()
    node_b = g["node_b"].reshape(-1, 1).copy()
    parts = {k: [] for k in ("pid", "p2c", "pos", "w", "out")}
    for c in contribs:
        cell_acc[c["cell_ids"]] = c["cell_acc"]
        cell_hits[c["cell_ids"]] = c["cell_hits"]
        node_a[c["node_ids"]] = c["node_a"]
        node_b[c["node_ids"]] = c["node_b"]
        for k in parts:
            parts[k].append(c[k])
    pid = np.concatenate(parts["pid"])
    order = np.argsort(pid)
    state: Dict[str, np.ndarray] = {
        "cell_acc": cell_acc, "cell_hits": cell_hits,
        "node_a": node_a, "node_b": node_b,
        "pid": pid[order],
    }
    for k in ("p2c", "pos", "w", "out"):
        state[k] = np.concatenate(parts[k])[order]
    state["n_removed"] = np.asarray([contribs[0]["n_removed"]])
    for k, v in contribs[0]["g_hist"].items():
        state[f"g_{k}_hist"] = np.asarray(v, dtype=np.float64)
    return state


def _dist_proc_entry(transport, fields: dict) -> dict:
    """Runs inside each rank process under the ``proc`` transport."""
    case = DistCase(**fields)
    world = _build_dist_world(case, transport)
    for op in case.program:
        DIST_OPS[op](world)
    return _rank_contrib(world, transport.my_rank)


def run_dist_case(case: DistCase,
                  transport: str = "sim") -> Dict[str, np.ndarray]:
    """Execute a case's program partitioned over ``case.nranks`` ranks
    and return the assembled global state."""
    if transport == "sim":
        comm = SimComm(case.nranks)
        world = _build_dist_world(case, comm)
        for op in case.program:
            DIST_OPS[op](world)
        return _assemble(case, [_rank_contrib(world, r)
                                for r, _rk in _locals(world)])
    if transport == "proc":
        from ..dist.proc import ProcCluster
        cluster = ProcCluster(case.nranks, _dist_proc_entry,
                              args=(case.to_dict(),))
        return _assemble(case, cluster.run())
    raise ValueError(f"unknown transport {transport!r}")


def _oracle_state(case: DistCase) -> Dict[str, np.ndarray]:
    """The same program, unpartitioned: one rank over the simulated
    transport — no halos, no migration, no DH relocation."""
    return run_dist_case(case.replace(nranks=1), "sim")


class DistConformanceFailure(AssertionError):
    """A partitioned run diverged from the 1-rank oracle."""

    def __init__(self, transport: str, case: DistCase, shrunk: DistCase,
                 mismatches: List[str]):
        self.transport = transport
        self.case = case
        self.shrunk = shrunk
        self.mismatches = mismatches
        lines = [f"{case.nranks}-rank run over the {transport!r} "
                 "transport diverged from the 1-rank oracle",
                 f"  original case: {case.signature()}",
                 f"  minimal case:  {shrunk.signature()}",
                 "  mismatches:"]
        lines += [f"    - {m}" for m in mismatches]
        repro = ("  reproduce: PYTHONPATH=src python -m repro verify "
                 f"--dist-conformance --seed {case.seed} --cases 1")
        if transport != "sim":
            repro += f" --transport {transport}"
        lines.append(repro)
        super().__init__("\n".join(lines))


def _case_fails(case: DistCase, transport: str) -> List[str]:
    return compare_states(_oracle_state(case),
                          run_dist_case(case, transport))


def run_dist_conformance(n_cases: int = 25, seed: int = 0,
                         transport: str = "sim",
                         progress: Optional[Callable[[str], None]] = None,
                         shrink: bool = True) -> dict:
    """Sweep ``n_cases`` generated cases, each partitioned run compared
    against its 1-rank oracle.  Raises :class:`DistConformanceFailure`
    (with a shrunk minimal case) on the first divergence."""
    checked = 0
    rank_counts = set()
    for i in range(n_cases):
        case = generate_dist_case(seed + i)
        rank_counts.add(case.nranks)
        mismatches = _case_fails(case, transport)
        if mismatches:
            shrunk = case
            if shrink:
                shrunk, shrunk_mismatches = shrink_case(
                    case, transport, fails=_case_fails)
                if shrunk_mismatches:
                    mismatches = shrunk_mismatches
            raise DistConformanceFailure(transport, case, shrunk,
                                         mismatches)
        checked += 1
        if progress is not None and (i + 1) % 10 == 0:
            progress(f"dist-conformance: {i + 1}/{n_cases} cases ok")
    return {"cases": n_cases, "transport": transport,
            "rank_counts": sorted(rank_counts), "executions": checked}
