"""Memory-footprint accounting.

The paper repeatedly trades memory for speed (DH overlay bookkeeping,
thread-private scatter arrays, particle over-allocation); this module
reports where a simulation's bytes actually live, per set and per dat.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..core.dats import Dat
from ..core.maps import Map
from ..core.sets import ParticleSet

__all__ = ["MemoryReport", "memory_report"]


@dataclass
class MemoryReport:
    """Byte totals per category plus per-dat rows."""

    mesh_dats: int = 0
    particle_dats: int = 0
    maps: int = 0
    overlay: int = 0
    plan_cache: int = 0
    #: (name, kind, nbytes) rows sorted by size
    rows: List[tuple] = None

    @property
    def total(self) -> int:
        return (self.mesh_dats + self.particle_dats + self.maps
                + self.overlay + self.plan_cache)

    def report(self, title: str = "Memory footprint") -> str:
        lines = [title,
                 f"{'object':<32}{'kind':<12}{'bytes':>12}"]
        for name, kind, nbytes in self.rows:
            lines.append(f"{name:<32}{kind:<12}{nbytes:>12}")
        lines.append(f"{'TOTAL':<32}{'':<12}{self.total:>12}")
        return "\n".join(lines)


def _handle_holders(sim):
    """(row prefix, object) pairs whose attributes hold DSL handles: the
    app, its resident rank declarations and its gathered node system."""
    ranks = [(r, rk) for r, rk in enumerate(getattr(sim, "ranks", ()))
             if rk is not None]
    holders = [("", sim)]
    holders += [(f"r{r}." if len(ranks) > 1 else "", rk) for r, rk in ranks]
    if getattr(sim, "system", None) is not None:
        holders.append(("system.", sim.system))
    return holders


def memory_report(sim) -> MemoryReport:
    """Account every dat/map/overlay/plan reachable from a simulation
    object's attributes (works for all four applications)."""
    rep = MemoryReport(rows=[])
    seen = set()
    for name, obj in ((prefix + name, obj)
                      for prefix, holder in _handle_holders(sim)
                      for name, obj in vars(holder).items()):
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Dat):
            nbytes = obj._raw.nbytes
            if isinstance(obj.set, ParticleSet):
                rep.particle_dats += nbytes
                rep.rows.append((name, "particle dat", nbytes))
            else:
                rep.mesh_dats += nbytes
                rep.rows.append((name, "mesh dat", nbytes))
        elif isinstance(obj, Map):
            nbytes = obj._raw.nbytes
            rep.maps += nbytes
            rep.rows.append((name, "map", nbytes))

    overlay = getattr(sim, "overlay", None)
    if overlay is not None:
        rep.overlay = overlay.nbytes
        rep.rows.append(("overlay", "DH bookkeeping", overlay.nbytes))
    dh = getattr(sim, "dh_mover", None)
    if dh is not None:
        rep.overlay += dh.overlay_nbytes
        rep.rows.append(("dh_mover", "DH bookkeeping (RMA copies)",
                         dh.overlay_nbytes))

    ctx = getattr(sim, "ctx", None)
    if ctx is not None and hasattr(ctx.backend, "plan"):
        nbytes = sum(rows.nbytes
                     for rows in ctx.backend.plan._rows.values())
        rep.plan_cache = nbytes
        if nbytes:
            rep.rows.append(("loop plans", "plan cache", nbytes))

    rep.rows.sort(key=lambda r: -r[2])
    return rep
