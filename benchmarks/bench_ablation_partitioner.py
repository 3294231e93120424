"""Ablation (paper §4): mesh partitioning strategy.

Paper: a custom partitioner along the "principal direction of motion of
particles" (as in PUMIPic) is used instead of ParMETIS because it
"significantly minimizes communication between partitions", and load
balance of particles governs the synchronization wait at the move.

We partition the same duct four ways and measure, in real runs, the
PIC communication volume and particle balance each induces.
"""
import numpy as np
import pytest

from repro.apps.fempic import FemPicConfig, FemPicSimulation
from repro.runtime import edge_cut

from .common import write_result

METHODS = ["principal_direction", "rcb", "graph", "block"]
NRANKS = 4


def run(method: str) -> FemPicSimulation:
    from .common import quasineutral
    cfg = FemPicConfig(nx=3, ny=3, nz=12, lz=3.0, dt=0.3, n_steps=5,
                       plasma_den=4e3, n0=4e3)
    cfg = quasineutral(cfg, 150)
    dist = FemPicSimulation(cfg, nranks=NRANKS, partition_method=method)
    dist.seed_uniform_plasma(150)
    dist.run()
    return dist


@pytest.fixture(scope="module")
def runs():
    return {m: run(m) for m in METHODS}


def _particle_weights(dist) -> np.ndarray:
    """Global per-cell particle counts at the end of the run."""
    w = np.zeros(len(dist.cell_owner))
    for r, rk in enumerate(dist.ranks):
        n = rk.parts.size
        gcell = dist.meshes[r].cells_global[rk.p2c.p2c[:n]]
        np.add.at(w, gcell, 1.0)
    return w


def test_ablation_partitioner(runs, benchmark):
    from repro.runtime import diffusive, migration_volume

    # collect statistics before the benchmark adds extra steps
    lines = ["Ablation — partitioner vs PIC communication "
             f"({NRANKS} ranks)",
             f"{'method':<22}{'edge cut':>10}{'PIC MB sent':>13}"
             f"{'imbalance':>11}{'rebal. vol':>12}"]
    stats = {}
    for m, dist in runs.items():
        cut = edge_cut(dist.mesh.c2c, dist.cell_owner)
        mb = dist.comm.stats.total_bytes / 1e6
        counts = np.array([rk.parts.size for rk in dist.ranks])
        imb = counts.max() / max(counts.mean(), 1.0)
        # one-off cost of switching to the particle-balanced partition
        # the elastic runtime would pick at this point of the run
        balanced = diffusive(dist.mesh.centroids, NRANKS,
                             weights=_particle_weights(dist))
        vol = migration_volume(dist.cell_owner, balanced)
        stats[m] = (cut, mb, imb, vol)
        lines.append(f"{m:<22}{cut:>10}{mb:>13.3f}{imb:>11.2f}"
                     f"{vol:>12.0f}")
    write_result("ablation_partitioner", "\n".join(lines))

    benchmark(runs["principal_direction"].step)

    pd_cut, pd_mb, pd_imb, pd_vol = stats["principal_direction"]
    # on this duct the slab partitioners (pd / rcb / block) coincide; the
    # paper's point is the custom scheme's advantage over a
    # general-purpose graph partitioner (their ParMETIS option)
    assert pd_cut <= stats["graph"][0]
    assert pd_mb <= stats["graph"][1]
    assert pd_mb <= 1.05 * min(s[1] for s in stats.values())
    # slab partitioning along the motion direction keeps particles
    # reasonably balanced (transient fill gradient notwithstanding)
    assert pd_imb < 2.5
    # slabs are also the cheapest starting point for an online
    # rebalance: diffusive only shifts boundaries, so switching from
    # pd costs no more cells than from the graph partition
    assert pd_vol <= stats["graph"][3]
