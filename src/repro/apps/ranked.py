"""Rank plumbing shared by the apps that run one step source at any rank
count (Mini-FEM-PIC and the 2-D sheet model).

Such an app partitions its global mesh by cells, declares one set of DSL
objects per rank over that rank's local mesh (``app.ranks[r]``; ``None``
where the rank lives in another process) and runs each step phase as a
loop over the ranks resident in this process, with halo exchanges and
particle migration between phases.  ``comm`` picks the transport: by
default an in-process :class:`SimComm` over ``nranks`` ranks (one rank
is the single-node program: its halo plan is empty and every collective
returns its one input), or an SPMD transport such as
``repro.dist.proc.ProcTransport`` that hosts one rank per process.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime import SimComm, build_rank_meshes, push_node_halos
from repro.runtime.comm import CommStats

__all__ = ["RankedApp"]


class RankedApp:
    """Base of an app whose step loops over its resident ranks.

    A subclass sets ``mesh`` (the global mesh, with ``c2c`` and
    ``cell2node``), calls :meth:`_partition` and fills ``ranks``.
    """

    #: per-rank handles a single-rank app also exposes as its own
    #: attributes (``sim.parts`` is ``sim.ranks[0].parts``)
    RANK_HANDLES: Tuple[str, ...] = ()

    def _partition(self, comm, nranks: int, owner_of) -> None:
        """Adopt ``comm`` (default ``SimComm(nranks)``), the initial cell
        ownership ``owner_of(nranks)``, and its rank meshes and halo
        plan."""
        self.comm = comm if comm is not None else SimComm(nranks)
        #: traffic of the gathered field solve (the PETSc stand-in) is
        #: ledgered apart from PIC halo/migration traffic
        self.solve_stats = CommStats(self.nranks)
        self.cell_owner = owner_of(self.nranks)
        self.meshes, self.plan = self._build_partition(self.cell_owner)

    @property
    def nranks(self) -> int:
        return self.comm.nranks

    def _local(self):
        """(rank, declarations) pairs resident in this process."""
        return [(r, rk) for r, rk in enumerate(self.ranks)
                if rk is not None]

    def _each(self, name: str) -> list:
        """One handle per rank (``None`` for remote ranks) — the form the
        halo, migration and move routines take."""
        return [None if rk is None else getattr(rk, name)
                for rk in self.ranks]

    def _allreduce(self, values: Sequence, op: str = "sum"):
        """Reduce a rank-indexed list (remote ranks' ``None`` slots are
        placeholders the transport ignores)."""
        return self.comm.allreduce([0 if v is None else v for v in values],
                                   op)

    def busy_seconds_per_rank(self) -> List[float]:
        return [rk.ctx.perf.total_seconds if rk else 0.0
                for rk in self.ranks]

    def __getattr__(self, name: str):
        # only reached when normal lookup fails
        if name in type(self).RANK_HANDLES:
            local = [rk for rk in self.__dict__.get("ranks") or ()
                     if rk is not None]
            if len(local) == 1:
                return getattr(local[0], name)
            raise AttributeError(
                f"{type(self).__name__} hosts {len(local)} ranks in this "
                f"process; {name!r} is per rank (use .ranks[r].{name})")
        raise AttributeError(f"{type(self).__name__!r} object has no "
                             f"attribute {name!r}")

    # -- the gathered node system (rank 0 solves) ------------------------------

    def _gather_nodes(self, names: Sequence[str],
                      tag: int) -> Optional[np.ndarray]:
        """Every rank's owned rows of the node dats ``names``, assembled
        column-wise in global node order on rank 0 (``None`` elsewhere)."""
        comm = self.comm
        out = np.zeros((self.mesh.n_nodes, len(names))) \
            if comm.is_local(0) else None
        old = comm.swap_stats(self.solve_stats)
        try:
            for r, rm in enumerate(self.meshes):
                n = rm.n_owned_nodes
                if comm.is_local(r):
                    rows = np.concatenate(
                        [getattr(self.ranks[r], name).data[:n]
                         for name in names], axis=1)
                    if r != 0:
                        comm.send(r, 0, rows, tag=tag)
                if comm.is_local(0):
                    out[rm.nodes_global[:n]] = rows if r == 0 \
                        else comm.recv(0, r, tag=tag)
        finally:
            comm.swap_stats(old)
        return out

    def _scatter_nodes(self, values: Optional[np.ndarray], name: str,
                       tag: int) -> None:
        """Rank 0 hands every rank the owned rows of the global node
        array ``values`` (into node dat ``name``); ghosts follow through
        the node-halo push."""
        comm = self.comm
        old = comm.swap_stats(self.solve_stats)
        try:
            for r, rm in enumerate(self.meshes):
                n = rm.n_owned_nodes
                if comm.is_local(0):
                    rows = values[rm.nodes_global[:n]].reshape(n, -1)
                    if r != 0:
                        comm.send(0, r, rows, tag=tag)
                if comm.is_local(r):
                    getattr(self.ranks[r], name).data[:n] = rows \
                        if r == 0 else comm.recv(r, 0, tag=tag)
        finally:
            comm.swap_stats(old)
        push_node_halos(self._each(name), self.plan, comm)

    # -- elastic-runtime hooks (see repro.elastic.migrate) ---------------------

    def _build_partition(self, new_owner, nranks: Optional[int] = None):
        return build_rank_meshes(self.mesh.c2c, new_owner,
                                 nranks if nranks is not None
                                 else self.nranks,
                                 c2n=self.mesh.cell2node)

    def _slab_partition(self, weights, axis: int, n_layers: int,
                        length: float) -> np.ndarray:
        """Weighted slab repartition that can only shift boundaries
        between the mesh's layers along ``axis`` (the atomic unit)."""
        from repro.runtime import diffusive
        centroids = self._centroids3()
        keys = np.clip(np.floor(centroids[:, axis] / (length / n_layers)),
                       0, n_layers - 1).astype(np.int64)
        return diffusive(centroids, self.nranks, weights=weights,
                         axis=axis, keys=keys)

    def _centroids3(self) -> np.ndarray:
        """Cell centroids as 3-D points (z = 0 on a 2-D mesh), the
        partitioners' input."""
        c = self.mesh.centroids
        return np.pad(c, ((0, 0), (0, 3 - c.shape[1])))
