"""CabanaPIC on the OP-PIC DSL: unstructured declaration of a structured
periodic brick (paper §4: "we implement the application with OP-PIC,
using unstructured-mesh mappings, solving the same physics as the
original").

Step order follows the reference app's leapfrog:
Interpolate → Move_Deposit → AccumulateCurrent → AdvanceB(½) →
AdvanceE → AdvanceB(½), with per-iteration E/B field energies recorded
for the validation against :mod:`repro.apps.cabana.reference`.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.api import (OPP_INC, OPP_ITERATE_ALL, OPP_READ, OPP_RW,
                            OPP_WRITE, Context, arg_dat, arg_gbl, decl_dat,
                            decl_global, decl_map, decl_particle_set,
                            decl_set, par_loop, particle_move, push_context)
from repro.mesh import STENCIL, HexMesh
from repro.runtime.objcache import get_or_build

from . import kernels as k
from .config import CabanaConfig
from .init import declare_cabana_constants, two_stream_initial_state

__all__ = ["CabanaSimulation"]

_S = STENCIL


class CabanaSimulation:
    """Single-node CabanaPIC with the multi-hop (MH) move."""

    def __init__(self, config: Optional[CabanaConfig] = None):
        self.cfg = cfg = config or CabanaConfig()
        self.ctx = Context(cfg.backend, **cfg.backend_options)
        self.mesh = get_or_build(
            ("cabana_brick", cfg.nx, cfg.ny, cfg.nz, cfg.lx, cfg.ly,
             cfg.lz),
            lambda: HexMesh(cfg.nx, cfg.ny, cfg.nz, cfg.lx, cfg.ly,
                            cfg.lz))
        if cfg.pusher != "boris" and cfg.pusher not in k.PUSHERS:
            raise ValueError(f"unknown pusher {cfg.pusher!r}; available: "
                             f"boris, {sorted(k.PUSHERS)}")
        declare_cabana_constants(cfg)
        self._declare()
        self._initialize_particles()
        self.step_count = 0
        #: the Program accumulated by run() when cfg.program != "off"
        self.program = None
        self.history = {"e_energy": [], "b_energy": []}

    def _declare(self) -> None:
        mesh = self.mesh
        cfg = self.cfg
        self.cells = decl_set(mesh.n_cells, "cells")
        self.parts = decl_particle_set(self.cells, 0, "electrons")

        self.stencil = decl_map(self.cells, self.cells, 10,
                                mesh.stencil_c2c, "cell_stencil")
        self.faces = decl_map(self.cells, self.cells, 6, mesh.face_c2c,
                              "cell_faces")
        self.p2c = decl_map(self.parts, self.cells, 1, None,
                            "particle_to_cell")

        self.e = decl_dat(self.cells, 3, np.float64, None, "e_field")
        self.b = decl_dat(self.cells, 3, np.float64, None, "b_field")
        self.j = decl_dat(self.cells, 3, np.float64, None, "current")
        self.interp = decl_dat(self.cells, 18, np.float64, None,
                               "interpolator")
        self.acc = decl_dat(self.cells, 3, np.float64, None, "accumulator")

        self.pos = decl_dat(self.parts, 3, np.float64, None, "offsets")
        self.disp = decl_dat(self.parts, 3, np.float64, None,
                             "displacement")
        self.vel = decl_dat(self.parts, 3, np.float64, None, "velocity")
        self.w = decl_dat(self.parts, 1, np.float64, None, "weight")
        self.pushed = decl_dat(self.parts, 1, np.float64, None, "push_flag")

        self.e_energy = decl_global(1, np.float64, name="e_energy")
        self.b_energy = decl_global(1, np.float64, name="b_energy")

    def _initialize_particles(self) -> None:
        cells, offsets, vel = two_stream_initial_state(self.cfg)
        sl = self.parts.add_particles(len(cells), cell_indices=cells)
        self.pos.data[sl] = offsets
        self.vel.data[sl] = vel
        self.w.data[sl] = self.cfg.weight
        self.parts.end_injection()

    # -- kernels -------------------------------------------------------------------

    def interpolate(self) -> None:
        st = self.stencil
        par_loop(k.interpolate_kernel, "Interpolate", self.cells,
                 OPP_ITERATE_ALL,
                 arg_dat(self.interp, OPP_WRITE),
                 arg_dat(self.e, OPP_READ),
                 arg_dat(self.b, OPP_READ),
                 arg_dat(self.e, _S["XP"], st, OPP_READ),
                 arg_dat(self.e, _S["YP"], st, OPP_READ),
                 arg_dat(self.e, _S["ZP"], st, OPP_READ),
                 arg_dat(self.e, _S["YPZP"], st, OPP_READ),
                 arg_dat(self.e, _S["XPZP"], st, OPP_READ),
                 arg_dat(self.e, _S["XPYP"], st, OPP_READ),
                 arg_dat(self.b, _S["XP"], st, OPP_READ),
                 arg_dat(self.b, _S["YP"], st, OPP_READ),
                 arg_dat(self.b, _S["ZP"], st, OPP_READ))

    def push(self) -> None:
        """Run the configured alternative pusher (paper §2) as its own
        particle loop; the fused Move_Deposit then only walks/deposits
        (its Boris block is guarded by the ``pushed`` flag)."""
        par_loop(k.PUSHERS[self.cfg.pusher], "PushParticles", self.parts,
                 OPP_ITERATE_ALL,
                 arg_dat(self.pos, OPP_READ),
                 arg_dat(self.disp, OPP_WRITE),
                 arg_dat(self.vel, OPP_RW),
                 arg_dat(self.pushed, OPP_WRITE),
                 arg_dat(self.interp, self.p2c, OPP_READ))

    def move_deposit(self):
        self.pushed.data[:] = 0.0   # new step: every particle gets pushed
        if self.cfg.pusher != "boris":
            self.push()
        return particle_move(k.move_deposit_kernel, "Move_Deposit",
                             self.parts, self.faces, self.p2c,
                             arg_dat(self.pos, OPP_RW),
                             arg_dat(self.disp, OPP_RW),
                             arg_dat(self.vel, OPP_RW),
                             arg_dat(self.w, OPP_READ),
                             arg_dat(self.pushed, OPP_RW),
                             arg_dat(self.interp, self.p2c, OPP_READ),
                             arg_dat(self.acc, self.p2c, OPP_INC))

    def accumulate_current(self) -> None:
        par_loop(k.accumulate_current_kernel, "AccumulateCurrent",
                 self.cells, OPP_ITERATE_ALL,
                 arg_dat(self.j, OPP_WRITE),
                 arg_dat(self.acc, OPP_RW))

    def advance_b(self) -> None:
        st = self.stencil
        par_loop(k.advance_b_kernel, "AdvanceB", self.cells,
                 OPP_ITERATE_ALL,
                 arg_dat(self.b, OPP_RW),
                 arg_dat(self.e, OPP_READ),
                 arg_dat(self.e, _S["XP"], st, OPP_READ),
                 arg_dat(self.e, _S["YP"], st, OPP_READ),
                 arg_dat(self.e, _S["ZP"], st, OPP_READ))

    def advance_e(self) -> None:
        st = self.stencil
        par_loop(k.advance_e_kernel, "AdvanceE", self.cells,
                 OPP_ITERATE_ALL,
                 arg_dat(self.e, OPP_RW),
                 arg_dat(self.b, OPP_READ),
                 arg_dat(self.b, _S["XM"], st, OPP_READ),
                 arg_dat(self.b, _S["YM"], st, OPP_READ),
                 arg_dat(self.b, _S["ZM"], st, OPP_READ),
                 arg_dat(self.j, OPP_READ))

    def energies(self) -> tuple:
        self.e_energy.data[0] = 0.0
        self.b_energy.data[0] = 0.0
        par_loop(k.energy_kernel, "EnergyE", self.cells, OPP_ITERATE_ALL,
                 arg_dat(self.e, OPP_READ), arg_gbl(self.e_energy, OPP_INC))
        par_loop(k.energy_kernel, "EnergyB", self.cells, OPP_ITERATE_ALL,
                 arg_dat(self.b, OPP_READ), arg_gbl(self.b_energy, OPP_INC))
        return float(self.e_energy.value), float(self.b_energy.value)

    # -- main loop -----------------------------------------------------------------

    def step(self) -> None:
        with push_context(self.ctx):
            self.interpolate()
            self.move_deposit()
            self.accumulate_current()
            self.advance_b()
            self.advance_e()
            self.advance_b()
            ee, be = self.energies()
        self.step_count += 1
        self.history["e_energy"].append(ee)
        self.history["b_energy"].append(be)

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
