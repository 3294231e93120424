"""Distributed Mini-FEM-PIC over the simulated MPI runtime.

Shows the paper's §3.2 machinery end to end: partitioning along the
principal direction of ion motion, halo construction, the multi-hop move
with particle packing / hole filling / migration, the direct-hop global
move over an RMA-shared overlay, and the per-rank communication ledger.
The single-rank reference and the N-rank runs are the same class,
``FemPicSimulation``; only ``nranks`` differs.

Run:  python examples/distributed_mpi.py [nranks]
"""
import sys

import numpy as np

from repro.apps.fempic import FemPicConfig, FemPicSimulation


def main():
    nranks = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    cfg = FemPicConfig(nx=3, ny=3, nz=4 * nranks, lz=float(nranks),
                       dt=0.25, n_steps=20, plasma_den=4e3, n0=4e3)

    single = FemPicSimulation(cfg)
    single.run()

    for strategy in ("mh", "dh"):
        dist = FemPicSimulation(cfg.scaled(move_strategy=strategy),
                                nranks=nranks)
        dist.run()
        err = abs(dist.history["field_energy"][-1]
                  - single.history["field_energy"][-1]) \
            / single.history["field_energy"][-1]
        stats = dist.comm.stats
        print(f"[{strategy}] {nranks} ranks: "
              f"{dist.history['n_particles'][-1]} ions, "
              f"energy error vs single rank {err:.2e}")
        print(f"     PIC traffic: {stats.total_messages} messages, "
              f"{stats.total_bytes / 1e3:.1f} kB, "
              f"{stats.collectives} collectives, "
              f"{stats.rma_ops} RMA ops")
        counts = np.array([rk.parts.size for rk in dist.ranks])
        print(f"     particles per rank: {counts.tolist()} "
              f"(imbalance {counts.max() / max(counts.mean(), 1):.2f})")
        if dist.dh_mover is not None:
            print(f"     DH overlay bookkeeping: "
                  f"{dist.dh_mover.overlay_nbytes} bytes "
                  "(one copy per shared-memory node via RMA)")


if __name__ == "__main__":
    main()
