"""2-D sheet model: cold-plasma (Langmuir) oscillation on triangles.

Electrons over a neutralizing background between grounded electrodes,
seeded with the fundamental standing mode — the textbook plasma
oscillation, resolved by the DSL on a fully unstructured triangular
mesh, then repeated over simulated MPI ranks.

Run:  python examples/twod_langmuir.py [--steps N]
(short runs skip the frequency measurement — it needs a few
oscillation periods)
"""
import argparse

import numpy as np

from repro.apps.twod import TwoDConfig, TwoDSheetModel


def measured_wp(energy, dt):
    e = np.asarray(energy)
    mins = np.flatnonzero((e[1:-1] < e[:-2]) & (e[1:-1] < e[2:])) + 1
    if len(mins) < 2:
        return float("nan")
    return np.pi / (np.median(np.diff(mins)) * dt)


def main(n_steps: int = 300):
    cfg = TwoDConfig(nx=16, ny=8, ppc=8, dt=0.05, n_steps=n_steps)
    sim = TwoDSheetModel(cfg)
    print(f"{cfg.n_particles} electrons on {cfg.n_cells} triangles "
          f"({sim.mesh.n_nodes} nodes); theory ωp = "
          f"{cfg.plasma_frequency:.3f}")
    sim.run()
    wp = measured_wp(sim.history["field_energy"], cfg.dt)
    if np.isfinite(wp):
        print(f"measured ωp from field-energy minima: {wp:.3f} "
              f"({abs(wp - cfg.plasma_frequency) / cfg.plasma_frequency:.1%} "
              "off theory)")
    else:
        print(f"({cfg.n_steps} steps covers less than two oscillation "
              "periods; run with --steps 300 to measure ωp)")
    print(sim.ctx.perf.report("\nPer-kernel breakdown"))

    dist_steps = min(40, cfg.n_steps)
    dist = TwoDSheetModel(cfg.scaled(n_steps=dist_steps), nranks=3)
    dist.run()
    err = abs(dist.history["field_energy"][-1]
              - sim.history["field_energy"][dist_steps - 1]) \
        / sim.history["field_energy"][dist_steps - 1]
    print(f"\n3-rank distributed run matches single rank to {err:.1e} "
          f"({dist.comm.stats.total_messages} PIC messages, solve "
          f"traffic ledgered separately: "
          f"{dist.solve_stats.total_bytes / 1e3:.1f} kB)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=300,
                        help="time steps (default 300; small values "
                        "give a quick smoke run)")
    main(parser.parse_args().steps)
