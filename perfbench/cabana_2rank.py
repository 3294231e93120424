"""Workload ``cabana-2rank``: CabanaPIC two-stream on two rank processes.

8×8×12 cells at 32 ppc (24,576 electrons) on the periodic brick, split
over 2 rank processes on the ``proc`` transport with ``vec`` on each
rank.  It is the only workload that drives the runtime halo push,
particle migration and the ``dist`` framed-pipe transport; each rank's
loops cover only about half of its wall time, so comm, wait and host
glue show here.

Each episode launches a fresh 2-rank cluster and times every step on
every rank; the run repeats whole episodes while time remains.  The
seed sets the amplitude of the two-stream perturbation.
"""
from __future__ import annotations

import time
from contextlib import ExitStack

import numpy as np

from . import common, spans

NRANKS = 2
#: the workload, and a smoke size for the benchmark's own tests
SIZES = {"full": {"nx": 8, "ny": 8, "nz": 12, "ppc": 32, "steps": 40},
         "smoke": {"nx": 4, "ny": 4, "nz": 8, "ppc": 4, "steps": 4}}
#: a distributed run regroups per-rank sums, so its history matches the
#: 1-rank run to rounding, as the distributed gate requires
RTOL, ATOL = 1e-9, 1e-18


def config(seed: int, size: dict):
    from repro.apps.cabana import CabanaConfig
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return CabanaConfig(nx=size["nx"], ny=size["ny"], nz=size["nz"],
                        ppc=size["ppc"], backend="vec",
                        perturbation=float(rng.uniform(0.08, 0.12)))


def params(seed: int, size: str) -> dict:
    cfg = config(seed, SIZES[size])
    return dict(SIZES[size], cells=cfg.n_cells,
                particles=cfg.n_particles, ranks=NRANKS, transport="proc",
                backend=cfg.backend, perturbation=cfg.perturbation)


def _targets(cdist) -> list:
    from repro.runtime import exchange
    from repro.translator import codegen, parser
    return [
        (cdist, "par_loop", "core", "par_loop"),
        (cdist, "mpi_particle_move", "runtime", "mpi_particle_move"),
        (exchange, "migrate", "runtime", "migrate"),
        (cdist, "HexMesh", "mesh", "hex_mesh"),
        (cdist, "build_rank_meshes", "runtime", "build_rank_meshes"),
        (codegen, "generate", "translator", "generate"),
        (parser, "parse_kernel", "translator", "parse_kernel"),
    ]


def _rank(transport, cfg, n_steps: int, traced: bool) -> dict:
    """Runs inside each rank process."""
    t_enter = time.perf_counter()
    from repro.apps.cabana import distributed as cdist
    from repro.perf.trace import TraceLog

    tracer = spans.Tracer()
    times = []
    with ExitStack() as stack:
        if traced:
            stack.enter_context(tracer.patched(_targets(cdist)))
        app = cdist.DistributedCabana(cfg, comm=transport)
        rk = next(r for r in app.ranks if r is not None)
        if traced:
            rk.ctx.perf.trace = TraceLog(origin=0.0)
        for i in range(n_steps):
            if i == 1:
                sent0 = (transport.stats.total_messages,
                         transport.stats.total_bytes)
                perf0 = rk.ctx.perf.to_dict()
            a = time.perf_counter()
            app.step()
            b = time.perf_counter()
            times.append(b - a)
            if traced:
                tracer.spans.append(("apps", "cabana.step", a, b))
            if i == 0:
                first_step_end = b
    events = rk.ctx.perf.trace.events if traced else []
    return {"rank": transport.my_rank, "t_enter": t_enter,
            "first_step_end": first_step_end, "step_s": times[1:],
            "history": app.history, "n_particles": rk.parts.size,
            "msgs": transport.stats.total_messages - sent0[0],
            "bytes": transport.stats.total_bytes - sent0[1],
            "perf_setup": perf0, "perf": rk.ctx.perf.to_dict(),
            "spans": tracer.spans + spans.recorder_spans(events)}


def run_episode(cfg, n_steps: int, traced: bool) -> dict:
    from repro.dist import ProcCluster
    t0 = time.perf_counter()
    ranks = ProcCluster(NRANKS, _rank, args=(cfg, n_steps, traced)).run()
    wall = time.perf_counter() - t0
    return {"traced": traced, "ranks": ranks, "wall_s": wall,
            "launch_s": max(r["t_enter"] for r in ranks) - t0,
            "setup_s": max(r["first_step_end"] for r in ranks) - t0,
            # the slowest rank sets each step's time
            "step_s": np.max([r["step_s"] for r in ranks], axis=0)}


def loop_ms(rank: dict, name: str) -> float:
    after = rank["perf"].get(name, {}).get("seconds", 0.0)
    before = rank["perf_setup"].get(name, {}).get("seconds", 0.0)
    return (after - before) * 1e3 / len(rank["step_s"])


def busy_ms(rank: dict) -> float:
    """Loop time per step, halo exchange excluded."""
    return sum(loop_ms(rank, name) for name in rank["perf"]
               if name != "Update_Ghosts")


def particles(ep: dict) -> int:
    return sum(r["n_particles"] for r in ep["ranks"])


def layer_metrics(res: common.Result, traced: list, plain: list) -> None:
    # the slowest rank (largest mean step) of each traced episode
    slow = [max(ep["ranks"], key=lambda r: float(np.mean(r["step_s"])))
            for ep in traced]
    roots = [root for r in slow
             for root in spans.step_roots(r["spans"], "cabana.step")]
    ledger = common.record_ledger(res, roots)
    res.metric("core.dispatch_ms", ledger["core"], "ms", samples=len(roots))
    calls = sum(1 for root in roots for node in root.walk()
                if node.layer == "core")
    res.metric("core.loop_calls_per_step", calls / len(roots), "count")
    for loop in ("Move_Deposit", "Interpolate", "AdvanceE", "AdvanceB"):
        res.metric(f"backends.loop_ms.{loop}",
                   common.mean(loop_ms(r, loop) for r in slow), "ms")
    res.metric("runtime.halo_ms",
               common.mean(loop_ms(r, "Update_Ghosts") for r in slow), "ms")
    wall = common.mean(float(np.mean(r["step_s"])) * 1e3 for r in slow)
    busy = common.mean(busy_ms(r) for r in slow)
    res.metric("dist.rank_busy_ms", busy, "ms")
    res.metric("dist.rank_other_ms", wall - busy, "ms")
    res.metric("dist.rank_imbalance", common.mean(
        max(busy_ms(r) for r in ep["ranks"])
        / common.mean(busy_ms(r) for r in ep["ranks"]) for ep in traced),
        "ratio")
    res.metric("dist.launch_s",
               float(np.median([ep["launch_s"] for ep in plain])), "s",
               samples=len(plain))
    steps = sum(len(ep["ranks"][0]["step_s"]) for ep in traced)
    res.metric("runtime.msgs_per_step", sum(
        r["msgs"] for ep in traced for r in ep["ranks"]) / steps, "count")
    res.metric("runtime.bytes_per_step", sum(
        r["bytes"] for ep in traced for r in ep["ranks"]) / steps, "B")
    setup = spans.name_totals(
        [root for ep in traced for r in ep["ranks"]
         for root in spans.build_forest(r["spans"])], self_time=True)
    n = len(traced) * NRANKS
    res.metric("mesh.build_s", setup.get("mesh.hex_mesh", 0.0) / n, "s")
    res.metric("translator.translate_s", sum(
        t for key, t in setup.items() if key.startswith("translator."))
        / n, "s")
    common.trace_overhead(res, traced, plain)
    spans.export({f"episode {i} rank {r['rank']}": r["spans"]
                  for i, ep in enumerate(traced) for r in ep["ranks"]},
                 common.OUT_DIR / "trace-cabana-2rank.json")


def checks(res: common.Result, cfg, n_steps: int, episodes: list) -> None:
    from repro.dist import run_distributed
    ref = run_distributed("cabana", cfg, nranks=1, transport="sim",
                          n_steps=n_steps).history
    bad = []
    for i, ep in enumerate(episodes):
        wrong = [(i, r["rank"], diff) for r in ep["ranks"]
                 if (diff := common.histories_close(r["history"], ref,
                                                    rtol=RTOL, atol=ATOL))]
        if particles(ep) != cfg.n_particles:
            wrong.append((i, "particles", particles(ep)))
        res.operations(n_steps, n_steps if wrong else 0)
        bad += wrong
    res.check("matches_1rank", not bad,
              f"every rank's history vs the 1-rank run at rtol={RTOL} "
              f"atol={ATOL}; {cfg.n_particles} particles kept"
              + (f"; mismatched {bad[:4]}" if bad else ""))


def run(res: common.Result, seed: int, seconds: float, trace: bool,
        size: str = "full") -> None:
    from repro.dist import RankFailure
    cfg = config(seed, SIZES[size])
    n_steps = SIZES[size]["steps"]
    episodes = common.repeat_episodes(
        lambda traced: run_episode(cfg, n_steps, traced), seconds,
        [False, True] if trace else [False], res,
        failures=(RankFailure,), ops_per_episode=n_steps)
    plain = [ep for ep in episodes if not ep["traced"]]
    traced = [ep for ep in episodes if ep["traced"]]
    if trace:
        layer_metrics(res, traced, plain)
    else:
        common.step_metrics(
            res, [ep["setup_s"] for ep in plain],
            [ep["step_s"] for ep in plain],
            sum(particles(ep) * len(ep["step_s"]) for ep in plain))
        res.metric("peak_rss_mb", common.peak_rss_mb(NRANKS), "MB")
    res.info("episodes", len(episodes), "count", traced=len(traced),
             plain=len(plain))
    checks(res, cfg, n_steps, episodes)
