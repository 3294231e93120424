"""2-D sheet model: cold-plasma oscillation on a triangular mesh, for any
rank count.

Completes the distributed coverage for every mesh family: tetrahedra
(Mini-FEM-PIC), bricks (CabanaPIC), quads (advection) and triangles.
The structure mirrors :class:`~repro.apps.fempic.FemPicSimulation`:
x-slab partitioning, node-halo reduction for the deposit, migration
during the move, and a rank-0-gathered Poisson solve with
separately-ledgered traffic.  One rank is the single-node program.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ, OPP_RW,
                            OPP_WRITE, Context, arg_dat, decl_const,
                            decl_dat, decl_map, decl_particle_set,
                            decl_set, par_loop, particle_move,
                            push_context)
from repro.fem import DirichletSystem, KSPSolver
from repro.mesh.tri import TriMesh, square_tri_mesh
from repro.runtime import mpi_particle_move, partition, push_cell_halos, \
    reduce_node_halos
from repro.runtime.objcache import get_or_build

from ..ranked import RankedApp
from . import kernels as k
from .config import TwoDConfig

__all__ = ["TwoDSheetModel", "build_tri_stiffness",
           "lumped_node_areas"]

#: gather/scatter tags of the rank-0 Poisson solve
_TAG_GATHER_NW = 60
_TAG_SCATTER_PHI = 61


def build_tri_stiffness(mesh: TriMesh) -> sp.csr_matrix:
    """P1 stiffness on triangles: ``K_ij = Σ_c A_c ∇λ_i·∇λ_j``."""
    grads = mesh.grads
    local = np.einsum("cid,cjd->cij", grads, grads) \
        * mesh.areas[:, None, None]
    cells = mesh.cell2node
    rows = np.repeat(cells, 3, axis=1).reshape(-1, 3, 3)
    cols = np.tile(cells[:, None, :], (1, 3, 1))
    kmat = sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(mesh.n_nodes, mesh.n_nodes))
    return kmat.tocsr()


def lumped_node_areas(mesh: TriMesh) -> np.ndarray:
    """Lumped mass per node: a third of each adjacent triangle's area
    (sorted scatter, bit-equal to the ``np.add.at`` form)."""
    from repro.fem.assembly import sorted_scatter_add
    return sorted_scatter_add(mesh.cell2node.ravel(),
                              np.repeat(mesh.areas / 3.0, 3),
                              mesh.n_nodes)


class _Rank:
    """One rank's DSL declarations over its local mesh."""

    def __init__(self, cfg: TwoDConfig, mesh: TriMesh, rm,
                 ctx: Optional[Context] = None):
        # on a live rebalance the backend context is carried over so
        # worker pools and perf counters survive
        self.ctx = ctx if ctx is not None \
            else Context(cfg.backend, **cfg.backend_options)
        self.rm = rm
        cg = rm.cells_global
        self.cells = decl_set(rm.n_local_cells, "tri_cells")
        self.cells.owned_size = rm.n_owned_cells
        self.nodes = decl_set(rm.n_local_nodes, "tri_nodes")
        self.nodes.owned_size = rm.n_owned_nodes
        self.parts = decl_particle_set(self.cells, 0, "electrons2d")
        self.c2n = decl_map(self.cells, self.nodes, 3, rm.local_c2n,
                            "tri_c2n")
        self.c2c = decl_map(self.cells, self.cells, 3, rm.local_c2c,
                            "tri_c2c")
        self.p2c = decl_map(self.parts, self.cells, 1, None, "tri_p2c")

        self.ef = decl_dat(self.cells, 2, np.float64, None, "e_field2d")
        self.xform = decl_dat(self.cells, 6, np.float64, mesh.xforms[cg],
                              "tri_xform")
        self.gradm = decl_dat(self.cells, 6, np.float64,
                              mesh.grads.reshape(-1, 6)[cg], "tri_grads")
        self.areas = mesh.areas[cg[: rm.n_owned_cells]]
        self.phi = decl_dat(self.nodes, 1, np.float64, None, "phi2d")
        self.nw = decl_dat(self.nodes, 1, np.float64, None, "weights2d")
        self.pos = decl_dat(self.parts, 2, np.float64, None, "pos2d")
        self.vel = decl_dat(self.parts, 2, np.float64, None, "vel2d")
        self.lc = decl_dat(self.parts, 3, np.float64, None, "lc2d")


class TwoDSheetModel(RankedApp):
    """Electrons over a neutralizing background in a grounded box, on
    ``nranks`` ranks over ``comm`` (see
    :class:`~repro.apps.fempic.FemPicSimulation` for the transports)."""

    RANK_HANDLES = ("ctx", "cells", "nodes", "parts", "c2n", "c2c", "p2c",
                    "ef", "xform", "gradm", "phi", "nw", "pos", "vel", "lc")

    def __init__(self, config: Optional[TwoDConfig] = None,
                 nranks: int = 1, comm=None):
        self.cfg = cfg = config or TwoDConfig()
        mesh_key = ("twod_tri", cfg.nx, cfg.ny, cfg.lx, cfg.ly)
        self.mesh = get_or_build(
            mesh_key,
            lambda: square_tri_mesh(cfg.nx, cfg.ny, cfg.lx, cfg.ly))
        self._partition(comm, nranks, lambda n: partition(
            "principal_direction", n, centroids=self._centroids3(),
            axis=0))

        decl_const("dt2", cfg.dt)
        decl_const("qm2", cfg.qe / cfg.me)
        decl_const("tol2", cfg.move_tolerance)

        self.ranks = [_Rank(cfg, self.mesh, self.meshes[r])
                      if self.comm.is_local(r) else None
                      for r in range(self.nranks)]

        # gathered Poisson operator: only the solving rank needs it
        self.K = self.dirichlet = self.background = None
        if self.comm.is_local(0):
            mesh = self.mesh
            self.K = get_or_build(("twod_stiffness",) + mesh_key,
                                  lambda: build_tri_stiffness(mesh))
            node_areas = get_or_build(("twod_areas",) + mesh_key,
                                      lambda: lumped_node_areas(mesh))
            bnodes = mesh.tags["boundary_nodes"]
            self.dirichlet = DirichletSystem(self.K, bnodes,
                                             np.zeros(len(bnodes)))
            #: background (ion) charge per node, exactly neutralizing the
            #: undisplaced electron population
            self.background = -cfg.qe * cfg.density * node_areas

        self._seed_displaced_slab()
        self.history = {"com_x": [], "field_energy": [],
                        "n_particles": []}

    def _seed_displaced_slab(self) -> None:
        cfg = self.cfg
        mesh = self.mesh
        rng = np.random.default_rng(cfg.seed)
        n = cfg.n_particles
        cells = np.repeat(np.arange(mesh.n_cells), cfg.ppc)
        lam = rng.dirichlet(np.ones(3), size=n)
        verts = mesh.points[mesh.cell2node[cells]]
        pts = np.einsum("ni,nid->nd", lam, verts)
        # seed the fundamental Langmuir mode: ξ(x) = δ·lx·sin(πx/lx).
        # (A rigid displacement would be screened by the grounded walls;
        # the sine mode satisfies φ = 0 at both electrodes and rings at
        # the plasma frequency.)
        pts[:, 0] = np.clip(
            pts[:, 0] + cfg.displacement * cfg.lx
            * np.sin(np.pi * pts[:, 0] / cfg.lx),
            1e-9, cfg.lx - 1e-9)
        homes = mesh.locate(pts, guesses=cells)
        assert (homes >= 0).all()
        lam_home = mesh.barycentric(homes, pts)
        owner = self.cell_owner[homes]
        for r, rk in self._local():
            g2l = np.full(mesh.n_cells, -1, dtype=np.int64)
            g2l[rk.rm.cells_global] = np.arange(rk.rm.cells_global.size)
            mine = np.flatnonzero(owner == r)
            sl = rk.parts.add_particles(mine.size,
                                        cell_indices=g2l[homes[mine]])
            rk.pos.data[sl] = pts[mine]
            rk.lc.data[sl] = lam_home[mine]
            rk.parts.end_injection()

    # -- step phases -------------------------------------------------------------

    def deposit_and_solve(self) -> None:
        for _r, rk in self._local():
            with push_context(rk.ctx):
                par_loop(k.reset2d_kernel, "Reset2D", rk.nodes,
                         OPP_ITERATE_ALL, arg_dat(rk.nw, OPP_WRITE))
                par_loop(k.deposit2d_kernel, "Deposit2D", rk.parts,
                         OPP_ITERATE_ALL,
                         arg_dat(rk.lc, OPP_READ),
                         arg_dat(rk.nw, 0, rk.c2n, rk.p2c, OPP_INC),
                         arg_dat(rk.nw, 1, rk.c2n, rk.p2c, OPP_INC),
                         arg_dat(rk.nw, 2, rk.c2n, rk.p2c, OPP_INC))
        reduce_node_halos(self._each("nw"), self.plan, self.comm)
        w = self._gather_nodes(("nw",), tag=_TAG_GATHER_NW)
        phi = None
        if self.comm.is_local(0):
            cfg = self.cfg
            net = (w[:, 0] * cfg.weight * cfg.qe + self.background) \
                / cfg.eps0
            sol = KSPSolver(self.dirichlet.k_ff, pc="jacobi",
                            rtol=1e-10).solve(net[self.dirichlet.free])
            phi = self.dirichlet.full_vector(sol.x)
        self._scatter_nodes(phi, "phi", tag=_TAG_SCATTER_PHI)
        for _r, rk in self._local():
            with push_context(rk.ctx):
                par_loop(k.field2d_kernel, "Field2D", rk.cells,
                         OPP_ITERATE_ALL,
                         arg_dat(rk.ef, OPP_WRITE),
                         arg_dat(rk.gradm, OPP_READ),
                         arg_dat(rk.phi, 0, rk.c2n, OPP_READ),
                         arg_dat(rk.phi, 1, rk.c2n, OPP_READ),
                         arg_dat(rk.phi, 2, rk.c2n, OPP_READ))
        # halo cells also need fields for particles paused there pre-move
        push_cell_halos(self._each("ef"), self.plan, self.comm)

    def push_and_move(self) -> None:
        for _r, rk in self._local():
            with push_context(rk.ctx):
                par_loop(k.push2d_kernel, "Push2D", rk.parts,
                         OPP_ITERATE_ALL,
                         arg_dat(rk.ef, rk.p2c, OPP_READ),
                         arg_dat(rk.pos, OPP_RW),
                         arg_dat(rk.vel, OPP_RW))
        args = [None if rk is None else
                [arg_dat(rk.pos, OPP_READ), arg_dat(rk.lc, OPP_WRITE),
                 arg_dat(rk.xform, rk.p2c, OPP_READ)] for rk in self.ranks]
        if self.nranks == 1:
            rk = self.ranks[0]
            with push_context(rk.ctx):
                particle_move(k.move2d_kernel, "Move2D", rk.parts, rk.c2c,
                              rk.p2c, *args[0])
            return
        mpi_particle_move(
            self.comm, self.plan, self.meshes, self._each("ctx"),
            k.move2d_kernel, "Move2D", self._each("parts"),
            self._each("c2c"), self._each("p2c"), args,
            [None if rk is None else [rk.pos, rk.vel, rk.lc]
             for rk in self.ranks])

    def step(self) -> None:
        self.deposit_and_solve()
        self.push_and_move()
        sums = [None] * self.nranks
        for r, rk in self._local():
            owned = rk.rm.n_owned_cells
            e2 = (rk.ef.data[:owned] ** 2).sum(axis=1)
            n = rk.parts.size
            sums[r] = np.array([
                0.5 * self.cfg.eps0 * (e2 * rk.areas).sum(),
                rk.pos.data[:n, 0].sum(), n])
        energy, x_sum, n = self._allreduce(sums)
        n = int(n)
        self.history["com_x"].append(float(x_sum) / n if n else np.nan)
        self.history["field_energy"].append(float(energy))
        self.history["n_particles"].append(n)

    def run(self, n_steps: Optional[int] = None) -> dict:
        for _ in range(n_steps if n_steps is not None
                       else self.cfg.n_steps):
            self.step()
        return self.history

    # -- elastic-runtime hooks (see repro.elastic.migrate) -------------------------

    def _rebuild_rank(self, r: int, rank_mesh, old_rank: _Rank) -> _Rank:
        return _Rank(self.cfg, self.mesh, rank_mesh, ctx=old_rank.ctx)

    def _migration_spec(self) -> dict:
        # every mesh field is recomputed before use each step; only the
        # particles carry state across steps
        return {"cell": (), "node": (), "part": ("pos", "vel", "lc"),
                "c2n": self.mesh.cell2node}

    def _elastic_partition(self, weights) -> np.ndarray:
        return self._slab_partition(weights, axis=0, n_layers=self.cfg.nx,
                                    length=self.cfg.lx)
