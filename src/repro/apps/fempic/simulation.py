"""Mini-FEM-PIC: the simulation driver built on the OP-PIC API, for any
rank count.

An electrostatic 3-D unstructured FEM PIC in a duct: ions are injected at
a constant rate from the inlet faces, drift under the self-consistent
field (nonlinear Poisson with Boltzmann electrons, Newton + KSP), deposit
charge to mesh nodes through the particle→cell→node double indirection,
and are removed at boundary faces.

The paper's flat-MPI execution is the same source: the duct is
partitioned along the principal direction of ion motion (the z axis),
each rank declares its local mesh + halo through the same DSL calls, and
every phase loops over the ranks resident in this process, with halo
exchanges and particle migration in between.  The nonlinear Poisson
solve gathers the (small) node system to rank 0 — the stand-in for the
PETSc distributed KSP, with gather/scatter traffic counted against the
communicator.  One rank is the single-node program.
"""
from __future__ import annotations

import time
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_ITERATE_INJECTED,
                            OPP_READ, OPP_RW, OPP_WRITE, Context, arg_dat,
                            arg_gbl, decl_const, decl_dat, decl_global,
                            decl_map, decl_particle_set, decl_set, par_loop,
                            particle_move, push_context)
from repro.fem import DirichletSystem, KSPSolver, build_stiffness, \
    lumped_node_volumes
from repro.mesh import StructuredOverlay, duct_mesh
from repro.runtime import mpi_particle_move, partition, push_cell_halos, \
    reduce_node_halos
from repro.runtime.dh import DirectHopGlobalMover, direct_hop_assign
from repro.runtime.objcache import get_or_build

from ..ranked import RankedApp
from . import kernels as k
from .config import FemPicConfig

__all__ = ["FemPicSimulation", "sample_inlet_positions",
           "declare_fempic_constants"]

#: gather/scatter tags of the rank-0 field solve
_TAG_SCATTER_PHI = 40
_TAG_GATHER_NODES = 41


def declare_fempic_constants(cfg: FemPicConfig) -> None:
    """Register the kernel constants (``opp_decl_const``) for a config."""
    decl_const("dt", cfg.dt)
    decl_const("qm", cfg.ion_charge / cfg.ion_mass)
    decl_const("spwt", cfg.spwt)
    decl_const("ion_charge", cfg.ion_charge)
    decl_const("inv_eps0", 1.0 / cfg.eps0)
    decl_const("n0", cfg.n0)
    decl_const("phi0", cfg.phi0)
    decl_const("kTe", cfg.kTe)
    decl_const("inj_velocity", cfg.injection_velocity)
    decl_const("tol", cfg.move_tolerance)


def _face_areas(points: np.ndarray, faces: np.ndarray) -> np.ndarray:
    tri = points[faces[:, 2:]]
    return 0.5 * np.linalg.norm(
        np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]), axis=1)


def sample_inlet_positions(mesh, count: int, rng: np.random.Generator,
                           faces: Optional[np.ndarray] = None):
    """Area-weighted random positions on inlet faces — the duct's own
    (``mesh.tags["inlet_faces"]``) or the given subset of them.

    Returns ``(positions (n,3), cells (n,))`` — column 0 of the picked
    faces, the owning cell of each sample.  Randomness lives host-side
    (as in the reference app's injection distributions); kernels stay
    deterministic.
    """
    if faces is None:
        faces = mesh.tags["inlet_faces"]
    if faces.shape[0] == 0:
        raise RuntimeError("duct mesh has no inlet faces")
    tri = mesh.points[faces[:, 2:]]
    areas = _face_areas(mesh.points, faces)
    probs = areas / areas.sum()
    pick = rng.choice(faces.shape[0], size=count, p=probs)
    r1 = rng.random(count)
    r2 = rng.random(count)
    flip = r1 + r2 > 1.0
    r1[flip] = 1.0 - r1[flip]
    r2[flip] = 1.0 - r2[flip]
    t = tri[pick]
    pos = t[:, 0] + r1[:, None] * (t[:, 1] - t[:, 0]) \
        + r2[:, None] * (t[:, 2] - t[:, 0])
    # nudge inside the duct so the first barycentric test succeeds
    pos[:, 2] += 1e-9 * mesh.tags["extent"][2]
    return pos, faces[pick, 0]


class _Rank:
    """One rank's DSL declarations over its local mesh (owned cells
    first, then the halo)."""

    def __init__(self, cfg: FemPicConfig, mesh, rank_mesh,
                 nvol: np.ndarray, ctx: Optional[Context] = None):
        # on a live rebalance the backend context (worker pools, perf
        # counters) is carried over; only the DSL objects are rebuilt
        self.ctx = ctx if ctx is not None \
            else Context(cfg.backend, **cfg.backend_options)
        self.rm = rank_mesh
        cg = rank_mesh.cells_global

        self.cells = decl_set(rank_mesh.n_local_cells, "cells")
        self.cells.owned_size = rank_mesh.n_owned_cells
        self.nodes = decl_set(rank_mesh.n_local_nodes, "nodes")
        self.nodes.owned_size = rank_mesh.n_owned_nodes
        self.parts = decl_particle_set(self.cells, 0, "ions")

        self.c2n = decl_map(self.cells, self.nodes, 4, rank_mesh.local_c2n,
                            "cell_to_nodes")
        self.c2c = decl_map(self.cells, self.cells, 4, rank_mesh.local_c2c,
                            "cell_to_cells")
        self.p2c = decl_map(self.parts, self.cells, 1, None,
                            "particle_to_cell")

        self.ef = decl_dat(self.cells, 3, np.float64, None, "electric_field")
        self.xform = decl_dat(self.cells, 12, np.float64, mesh.xforms[cg],
                              "cell_xform")
        self.gradm = decl_dat(self.cells, 12, np.float64,
                              mesh.grads.reshape(-1, 12)[cg], "shape_deriv")
        self.cvol = decl_dat(self.cells, 1, np.float64, mesh.volumes[cg],
                             "cell_volume")

        self.phi = decl_dat(self.nodes, 1, np.float64, None,
                            "node_potential")
        self.nw = decl_dat(self.nodes, 1, np.float64, None, "node_charge")
        self.ncd = decl_dat(self.nodes, 1, np.float64, None,
                            "charge_density")
        self.nvol = decl_dat(self.nodes, 1, np.float64,
                             nvol[rank_mesh.nodes_global], "node_volume")

        self.pos = decl_dat(self.parts, 3, np.float64, None, "position")
        self.vel = decl_dat(self.parts, 3, np.float64, None, "velocity")
        self.lc = decl_dat(self.parts, 4, np.float64, None, "weights")
        self.energy = decl_global(1, np.float64, name="field_energy")

        # injection: the inlet faces whose owning cell this rank owns,
        # with that cell as a local id
        faces = mesh.tags["inlet_faces"]
        g2l = np.full(mesh.n_cells, -1, dtype=np.int64)
        g2l[cg] = np.arange(cg.size)
        local = g2l[faces[:, 0]]
        mine = (local >= 0) & (local < rank_mesh.n_owned_cells)
        self.inlet_faces = faces[mine].copy()
        self.inlet_faces[:, 0] = local[mine]
        self.inlet_area = float(_face_areas(mesh.points,
                                            self.inlet_faces).sum())


class _NodeSystem:
    """The global node system the Newton solve runs on (rank 0 only).
    With one rank it is rank 0's own node set and dats; with several,
    node charge and potential are gathered into global copies each
    step."""

    def __init__(self, nodes, phi, nw, nvol):
        self.nodes, self.phi, self.nw, self.nvol = nodes, phi, nw, nvol
        self.kphi = decl_dat(nodes, 1, np.float64, None, "stiffness_action")
        self.f1 = decl_dat(nodes, 1, np.float64, None, "f1_vector")
        self.jdiag = decl_dat(nodes, 1, np.float64, None, "j_diag")

    @classmethod
    def gathered(cls, nvol: np.ndarray) -> "_NodeSystem":
        nodes = decl_set(nvol.size, "nodes")
        return cls(nodes,
                   decl_dat(nodes, 1, np.float64, None, "node_potential"),
                   decl_dat(nodes, 1, np.float64, None, "node_charge"),
                   decl_dat(nodes, 1, np.float64, nvol, "node_volume"))


class FemPicSimulation(RankedApp):
    """Declares the mesh/particles through the DSL and advances the PIC
    loop on ``nranks`` ranks (halo exchange and particle migration
    between phases); works unchanged on every backend and transport.

    ``comm`` selects the rank transport: ``None`` builds the in-process
    :class:`~repro.runtime.SimComm` over ``nranks`` ranks (one program
    drives all ranks); an SPMD transport (``repro.dist.proc``) makes this
    instance host exactly one rank — the global mesh, partition and halo
    plan are rebuilt deterministically in every rank process, but
    per-rank sets/dats exist only for the resident rank.  With one rank
    the rank's handles are the app's own (``sim.parts``, ``sim.ctx``).
    """

    RANK_HANDLES = ("ctx", "cells", "nodes", "parts", "c2n", "c2c", "p2c",
                    "ef", "xform", "gradm", "cvol", "phi", "nw", "ncd",
                    "nvol", "pos", "vel", "lc", "energy")

    def __init__(self, config: Optional[FemPicConfig] = None,
                 nranks: int = 1,
                 partition_method: str = "principal_direction",
                 ranks_per_node: Optional[int] = None,
                 comm=None):
        self.cfg = cfg = config or FemPicConfig()
        if cfg.move_strategy not in ("mh", "dh"):
            raise ValueError(f"unknown move strategy {cfg.move_strategy!r}")
        if cfg.mesh_file:
            from repro.mesh.io import load_mesh
            self._mesh_key = ("fempic_mesh_file", str(cfg.mesh_file))
            self.mesh = get_or_build(self._mesh_key,
                                     lambda: load_mesh(cfg.mesh_file))
        else:
            self._mesh_key = ("fempic_duct", cfg.nx, cfg.ny, cfg.nz,
                              cfg.lx, cfg.ly, cfg.lz)
            self.mesh = get_or_build(
                self._mesh_key,
                lambda: duct_mesh(cfg.nx, cfg.ny, cfg.nz, cfg.lx, cfg.ly,
                                  cfg.lz))
        mesh = self.mesh
        self._partition(comm, nranks, lambda n: partition(
            partition_method, n, centroids=mesh.centroids, c2c=mesh.c2c,
            axis=2))
        if cfg.collision_frequency > 0.0 and self.nranks > 1:
            raise ValueError("collision_frequency needs a single rank: "
                             "the MCC draws follow the rank-local "
                             "particle order")
        # constants are global (decl_const) — same values on every rank
        declare_fempic_constants(cfg)
        self._nvol = get_or_build(
            ("fempic_nvol",) + self._mesh_key,
            lambda: lumped_node_volumes(mesh.points, mesh.cell2node))
        self.ranks = [_Rank(cfg, mesh, self.meshes[r], self._nvol)
                      if self.comm.is_local(r) else None
                      for r in range(self.nranks)]
        self.rngs = [np.random.default_rng(cfg.seed + 1000 * r)
                     for r in range(self.nranks)]
        self._inject_carry = [0.0] * self.nranks
        self._setup_field_solver()

        self._ranks_per_node = ranks_per_node
        self.overlay = None
        self.dh_mover = None
        if cfg.move_strategy == "dh":
            self.overlay = StructuredOverlay.build(mesh, cfg.overlay_bins)
            self._post_rebalance()
        self.collisions = None
        if cfg.collision_frequency > 0.0:
            from repro.field.collisions import MCCollisions
            self.collisions = MCCollisions(self.parts, self.vel,
                                           cfg.collision_frequency,
                                           cfg.dt, seed=cfg.seed + 99)
        self.step_count = 0
        #: the Program accumulated by run() when cfg.program != "off"
        self.program = None
        self.history = {"n_particles": [], "field_energy": [],
                        "max_phi": [], "injected": [], "removed": []}

    @property
    def rng(self) -> np.random.Generator:
        """The injection stream of a single-rank run."""
        if self.nranks != 1:
            raise AttributeError("rng is per rank here; use .rngs[r]")
        return self.rngs[0]

    # -- setup -------------------------------------------------------------------

    def _setup_field_solver(self) -> None:
        """Rank 0 holds the global operator and node system; every rank
        starts from the Dirichlet-set potential."""
        cfg = self.cfg
        mesh = self.mesh
        self.K = self.dirichlet = self.system = None
        phi = None
        if self.comm.is_local(0):
            self.K = get_or_build(
                ("fempic_stiffness",) + self._mesh_key,
                lambda: build_stiffness(mesh.points, mesh.cell2node))
            dn = np.concatenate([mesh.tags["inlet_nodes"],
                                 mesh.tags["wall_nodes"]])
            dv = np.concatenate([
                np.full(len(mesh.tags["inlet_nodes"]), cfg.inlet_potential),
                np.full(len(mesh.tags["wall_nodes"]), cfg.wall_potential)])
            order = np.argsort(dn)
            self.dirichlet = DirichletSystem(self.K, dn[order], dv[order])
            rk = self.ranks[0]
            self.system = _NodeSystem(rk.nodes, rk.phi, rk.nw, rk.nvol) \
                if self.nranks == 1 else _NodeSystem.gathered(self._nvol)
            phi = self.system.phi.data
            phi[self.dirichlet.dirichlet_nodes, 0] = \
                self.dirichlet.dirichlet_values
        if self.nranks > 1:
            self._scatter_nodes(phi, "phi", tag=_TAG_SCATTER_PHI)

    def seed_uniform_plasma(self, ppc: int) -> int:
        """Pre-fill the duct with ``ppc`` ions per cell (uniform within
        each tetrahedron, axial injection velocity).

        The paper's single-node runs report an *average* of ~70M particles
        in flight; seeding lets benchmarks reach that regime without
        simulating the fill transient.  The barycentric draws come from a
        dedicated RNG in *global* cell order, so the seeded plasma is the
        same physical particle set at every rank count.
        """
        mesh = self.mesh
        total = mesh.n_cells * ppc
        lam_global = np.random.default_rng(self.cfg.seed).dirichlet(
            np.ones(4), size=total).reshape(mesh.n_cells, ppc, 4)
        for _r, rk in self._local():
            owned = rk.rm.cells_global[: rk.rm.n_owned_cells]
            n = owned.size * ppc
            lam = lam_global[owned].reshape(n, 4)
            verts = np.repeat(mesh.points[mesh.cell2node[owned]], ppc,
                              axis=0)
            sl = rk.parts.add_particles(
                n, cell_indices=np.repeat(np.arange(owned.size), ppc))
            rk.pos.data[sl] = np.einsum("ni,nid->nd", lam, verts)
            rk.vel.data[sl] = [0.0, 0.0, self.cfg.injection_velocity]
            rk.lc.data[sl] = lam
            rk.parts.end_injection()
        return total

    # -- PIC steps ---------------------------------------------------------------

    def inject(self) -> list:
        """Constant-rate one-stream injection from each rank's share of
        the inlet faces; returns the rank-indexed injected counts."""
        cfg = self.cfg
        counts = [None] * self.nranks
        for r, rk in self._local():
            want = cfg.injection_rate * (rk.inlet_area / cfg.inlet_area) \
                + self._inject_carry[r]
            count = int(want)
            self._inject_carry[r] = want - count
            counts[r] = count
            rk.parts.begin_injection()
            if count:
                pos, cells = sample_inlet_positions(
                    self.mesh, count, self.rngs[r], faces=rk.inlet_faces)
                sl = rk.parts.add_particles(count, cell_indices=cells)
                rk.pos.data[sl] = pos
                with push_context(rk.ctx):
                    par_loop(k.init_injected_kernel, "InjectIons", rk.parts,
                             OPP_ITERATE_INJECTED,
                             arg_dat(rk.vel, OPP_WRITE),
                             arg_dat(rk.lc, OPP_WRITE))
                if cfg.injection_temperature > 0.0:
                    # drifting Maxwellian: thermal spread on top of the
                    # kernel's cold one-stream drift (host-side draws,
                    # like the positions)
                    vth = np.sqrt(cfg.injection_temperature / cfg.ion_mass)
                    rk.vel.data[sl] += self.rngs[r].normal(
                        0.0, vth, size=(count, 3))
                    # never inject *out* of the duct
                    rk.vel.data[sl.start:sl.stop, 2] = np.abs(
                        rk.vel.data[sl.start:sl.stop, 2])
            rk.parts.end_injection()
        return counts

    def calc_pos_vel(self) -> None:
        for _r, rk in self._local():
            with push_context(rk.ctx):
                par_loop(k.calc_pos_vel_kernel, "CalcPosVel", rk.parts,
                         OPP_ITERATE_ALL,
                         arg_dat(rk.ef, rk.p2c, OPP_READ),
                         arg_dat(rk.pos, OPP_RW),
                         arg_dat(rk.vel, OPP_RW))

    @staticmethod
    def _move_args(rk) -> list:
        return [arg_dat(rk.pos, OPP_READ), arg_dat(rk.lc, OPP_WRITE),
                arg_dat(rk.xform, rk.p2c, OPP_READ)]

    def move(self) -> list:
        """Relocate every particle (direct-hop first when configured);
        returns the rank-indexed move results."""
        if self.nranks == 1:
            rk = self.ranks[0]
            if self.overlay is not None:
                direct_hop_assign(self.overlay, rk.parts, rk.pos, rk.p2c)
            with push_context(rk.ctx):
                return [particle_move(k.move_kernel, "Move", rk.parts,
                                      rk.c2c, rk.p2c, *self._move_args(rk))]
        exchange = [None if rk is None else [rk.pos, rk.vel, rk.lc]
                    for rk in self.ranks]
        if self.dh_mover is not None:
            self.dh_mover.global_move(self._each("parts"), self._each("pos"),
                                      self._each("p2c"), exchange)
        return mpi_particle_move(
            self.comm, self.plan, self.meshes, self._each("ctx"),
            k.move_kernel, "Move", self._each("parts"), self._each("c2c"),
            self._each("p2c"),
            [None if rk is None else self._move_args(rk)
             for rk in self.ranks],
            exchange)

    def deposit(self) -> None:
        for _r, rk in self._local():
            with push_context(rk.ctx):
                par_loop(k.reset_node_charge_kernel, "ResetNodeCharge",
                         rk.nodes, OPP_ITERATE_ALL,
                         arg_dat(rk.nw, OPP_WRITE))
                par_loop(k.deposit_charge_kernel, "DepositCharge", rk.parts,
                         OPP_ITERATE_ALL,
                         arg_dat(rk.lc, OPP_READ),
                         arg_dat(rk.nw, 0, rk.c2n, rk.p2c, OPP_INC),
                         arg_dat(rk.nw, 1, rk.c2n, rk.p2c, OPP_INC),
                         arg_dat(rk.nw, 2, rk.c2n, rk.p2c, OPP_INC),
                         arg_dat(rk.nw, 3, rk.c2n, rk.p2c, OPP_INC))
        reduce_node_halos(self._each("nw"), self.plan, self.comm)
        for _r, rk in self._local():
            with push_context(rk.ctx):
                par_loop(k.compute_node_charge_density_kernel,
                         "ComputeNodeChargeDensity", rk.nodes,
                         OPP_ITERATE_ALL,
                         arg_dat(rk.ncd, OPP_WRITE),
                         arg_dat(rk.nw, OPP_READ),
                         arg_dat(rk.nvol, OPP_READ))

    def field_solve(self) -> None:
        """Newton iterations on the nonlinear Poisson system over the
        node system gathered to rank 0; each iteration runs the
        ComputeF1Vector/ComputeJMatrix loops and one KSP (CG) solve — the
        PETSc role."""
        s = self.system
        if self.nranks > 1:
            gathered = self._gather_nodes(("nw", "phi"),
                                          tag=_TAG_GATHER_NODES)
            if s is not None:
                s.nw.data[:] = gathered[:, :1]
                s.phi.data[:] = gathered[:, 1:]
        if s is not None:
            with push_context(self.ranks[0].ctx):
                self._newton()
        if self.nranks > 1:
            self._scatter_nodes(None if s is None else s.phi.data, "phi",
                                tag=_TAG_SCATTER_PHI)

    def _newton(self) -> None:
        s = self.system
        perf = self.ranks[0].ctx.perf
        for _ in range(self.cfg.newton_iters):
            s.kphi.data[:, 0] = self.K @ s.phi.data[:, 0]
            par_loop(k.compute_f1_vector_kernel, "ComputeF1Vector",
                     s.nodes, OPP_ITERATE_ALL,
                     arg_dat(s.f1, OPP_WRITE),
                     arg_dat(s.kphi, OPP_READ),
                     arg_dat(s.nw, OPP_READ),
                     arg_dat(s.phi, OPP_READ),
                     arg_dat(s.nvol, OPP_READ))
            par_loop(k.compute_j_matrix_kernel, "ComputeJMatrix",
                     s.nodes, OPP_ITERATE_ALL,
                     arg_dat(s.jdiag, OPP_WRITE),
                     arg_dat(s.phi, OPP_READ),
                     arg_dat(s.nvol, OPP_READ))
            t0 = time.perf_counter()
            a = (self.K + sp.diags(s.jdiag.data[:, 0])).tocsr()
            free = self.dirichlet.free
            a_ff = a[free][:, free]
            rhs = -s.f1.data[free, 0]
            ksp = KSPSolver(a_ff, pc="jacobi", rtol=self.cfg.ksp_rtol)
            result = ksp.solve(rhs)
            s.phi.data[free, 0] += result.x
            dt = time.perf_counter() - t0
            nnz = a_ff.nnz
            perf.record_loop(
                "Solve", n=free.size, seconds=dt,
                flops=2.0 * nnz * max(result.iterations, 1),
                nbytes=12.0 * nnz * max(result.iterations, 1),
                indirect_inc=False)

    def compute_electric_field(self) -> None:
        for _r, rk in self._local():
            with push_context(rk.ctx):
                par_loop(k.compute_electric_field_kernel,
                         "ComputeElectricField", rk.cells, OPP_ITERATE_ALL,
                         arg_dat(rk.ef, OPP_WRITE),
                         arg_dat(rk.gradm, OPP_READ),
                         arg_dat(rk.phi, 0, rk.c2n, OPP_READ),
                         arg_dat(rk.phi, 1, rk.c2n, OPP_READ),
                         arg_dat(rk.phi, 2, rk.c2n, OPP_READ),
                         arg_dat(rk.phi, 3, rk.c2n, OPP_READ))
        # halo cells also need fields for particles paused there pre-move;
        # push owner values to ghost cells
        push_cell_halos(self._each("ef"), self.plan, self.comm)

    def field_energy(self) -> float:
        vals = [None] * self.nranks
        for r, rk in self._local():
            rk.energy.data[0] = 0.0
            with push_context(rk.ctx):
                par_loop(k.field_energy_kernel, "FieldEnergy", rk.cells,
                         OPP_ITERATE_ALL,
                         arg_dat(rk.ef, OPP_READ),
                         arg_dat(rk.cvol, OPP_READ),
                         arg_gbl(rk.energy, OPP_INC))
            vals[r] = rk.energy.data.copy()
        return float(self._allreduce(vals)[0]) * self.cfg.eps0

    # -- main loop ---------------------------------------------------------------

    def step(self) -> None:
        injected = self.inject()
        if self.collisions is not None:
            with push_context(self.ranks[0].ctx):
                self.collisions.apply()
        self.calc_pos_vel()
        moved = self.move()
        self.deposit()
        self.field_solve()
        self.compute_electric_field()
        energy = self.field_energy()
        self.step_count += 1
        n, inj, removed = (int(v) for v in self._allreduce(
            [None if rk is None else np.array(
                [rk.parts.size, injected[r], moved[r].n_removed])
             for r, rk in enumerate(self.ranks)]))
        max_phi = self._allreduce(
            [None if rk is None else rk.phi.data.max()
             for rk in self.ranks], "max")
        self.history["n_particles"].append(n)
        self.history["field_energy"].append(energy)
        self.history["max_phi"].append(float(max_phi))
        self.history["injected"].append(inj)
        self.history["removed"].append(removed)

    def run(self, n_steps: Optional[int] = None) -> dict:
        steps = n_steps if n_steps is not None else self.cfg.n_steps
        mode = getattr(self.cfg, "program", "off")
        if mode != "off":
            from repro import program as program_mod
            if self.program is None:
                self.program = program_mod.Program(mode)
            with program_mod.record(mode=mode, program=self.program):
                for _ in range(steps):
                    self.step()
        else:
            for _ in range(steps):
                self.step()
        return self.history

    # -- elastic-runtime hooks (see repro.elastic.migrate) -------------------------

    def _rebuild_rank(self, r: int, rank_mesh, old_rank: _Rank) -> _Rank:
        return _Rank(self.cfg, self.mesh, rank_mesh, self._nvol,
                     ctx=old_rank.ctx)

    def _migration_spec(self) -> dict:
        # ef and phi (the Newton initial guess) are read before being
        # recomputed each step; ncd travels so snapshots between steps
        # stay coherent.  nw stays behind: the deposit relies on its
        # ghost rows being zero between steps (reduce_node_halos leaves
        # them so), and a migration would refill them from the owners
        return {"cell": ("ef",), "node": ("phi", "ncd"),
                "part": ("pos", "vel", "lc"),
                "c2n": self.mesh.cell2node}

    def _post_rebalance(self) -> None:
        if self.overlay is not None and self.nranks > 1:
            self.dh_mover = DirectHopGlobalMover(
                self.overlay.with_rank_map(self.cell_owner), self.comm,
                self.plan, self.meshes, ranks_per_node=self._ranks_per_node)

    def _elastic_partition(self, weights) -> np.ndarray:
        """Weighted slab repartition that can only shift layer
        boundaries: the duct's z layers are the atomic unit, so the
        inlet layer (all injection faces) never splits off rank 0 and
        the injection stream stays bit-identical across rebalances."""
        return self._slab_partition(weights, axis=2, n_layers=self.cfg.nz,
                                    length=self.cfg.lz)

    def _snapshot_extras(self, r: int) -> dict:
        import pickle
        return {"rng": np.frombuffer(
            pickle.dumps(self.rngs[r].bit_generator.state), dtype=np.uint8),
            "carry": np.array([self._inject_carry[r]])}

    def _restore_extras(self, r: int, extras: dict) -> None:
        import pickle
        self.rngs[r].bit_generator.state = pickle.loads(
            extras["rng"].tobytes())
        self._inject_carry[r] = float(extras["carry"][0])
