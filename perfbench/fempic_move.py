"""Workload ``fempic-move``: Mini-FEM-PIC duct, particle work dominates.

4×4×12 cells (1,152 tets), ``vec`` backend, direct-hop (DH) move, one
process.  The macro weight is the quasi-neutral weight of a 150-ppc
plasma; the duct is seeded at 40 ppc (46,080 ions) and the inlet keeps
injecting, so 38k–68k ions are in flight.  No comm, no service.

Each episode runs in a fresh interpreter process (cold construction) and advances
the same seeded trajectory a fixed number of steps; the run repeats
whole episodes while time remains, so every run measures the same
trajectory however fast the step is.
"""
from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack, nullcontext
from pathlib import Path

import numpy as np

from . import common, spans

#: the workload, and a smoke size for the benchmark's own tests
SIZES = {"full": {"nx": 4, "ny": 4, "nz": 12, "seed_ppc": 40, "steps": 60},
         "smoke": {"nx": 2, "ny": 2, "nz": 6, "seed_ppc": 4, "steps": 4}}
WEIGHT_PPC = 150
ORACLE_STEPS = 2

PHASES = {"inject": "inject", "calc_pos_vel": "calc_pos_vel",
          "move": "move", "deposit": "deposit",
          "field_solve": "field_solve", "efield": "compute_electric_field"}
LOOPS = ("Move", "CalcPosVel", "DepositCharge")
CHILD_TIMEOUT = 150.0


def config(seed: int, size: dict):
    from repro.apps.fempic import FemPicConfig
    cfg = FemPicConfig(nx=size["nx"], ny=size["ny"], nz=size["nz"],
                       backend="vec",
                       move_strategy="dh",
                       seed=int(np.random.SeedSequence(seed)
                                .generate_state(1)[0]))
    cell_volume = cfg.lx * cfg.ly * cfg.lz / cfg.n_cells
    return cfg.scaled(spwt=cfg.n0 * cell_volume / WEIGHT_PPC)


def params(seed: int, size: str) -> dict:
    cfg = config(seed, SIZES[size])
    return dict(SIZES[size], cells=cfg.n_cells, backend=cfg.backend,
                move=cfg.move_strategy, spwt=cfg.spwt, app_seed=cfg.seed,
                oracle_steps=ORACLE_STEPS)


def module_targets(app_module) -> list:
    """Public calls into each layer made from a FemPIC simulation module
    (also used for the service-mix reference runs)."""
    from repro.fem import solver
    from repro.mesh import StructuredOverlay
    from repro.translator import codegen, parser

    def ksp_iters(tracer, result):
        tracer.counts["fem.ksp_iters"] += result.iterations

    return [
        (app_module, "par_loop", "core", "par_loop"),
        (app_module, "particle_move", "core", "particle_move"),
        (app_module, "direct_hop_assign", "runtime", "direct_hop_assign"),
        (app_module, "duct_mesh", "mesh", "duct_mesh"),
        (app_module, "build_stiffness", "fem", "build_stiffness"),
        (app_module, "lumped_node_volumes", "fem", "lumped_node_volumes"),
        (StructuredOverlay, "build", "mesh", "overlay_build"),
        (solver.KSPSolver, "solve", "fem", "ksp_solve", ksp_iters),
        (codegen, "generate", "translator", "generate"),
        (parser, "parse_kernel", "translator", "parse_kernel"),
    ]


def phase_targets(sim) -> list:
    return [(sim, method, "apps", f"fempic.{phase}")
            for phase, method in PHASES.items()]


def _episode(seed: int, size: dict, traced: bool) -> dict:
    from repro.apps.fempic import FemPicSimulation
    from repro.apps.fempic import simulation as fsim
    from repro.perf.trace import TraceLog

    cfg = config(seed, size)
    tracer = spans.Tracer()
    span = tracer.span if traced else (lambda *a: nullcontext())
    times = []
    with ExitStack() as stack:
        if traced:
            stack.enter_context(tracer.patched(module_targets(fsim)))
        t0 = time.perf_counter()
        with span("apps", "fempic.setup"):
            sim = FemPicSimulation(cfg)
            with span("apps", "seed"):
                n_seeded = sim.seed_uniform_plasma(size["seed_ppc"])
        if traced:
            sim.ctx.perf.trace = TraceLog(origin=0.0)
            stack.enter_context(tracer.patched(phase_targets(sim)))
        for i in range(size["steps"]):
            a = time.perf_counter()
            sim.step()
            b = time.perf_counter()
            times.append(b - a)
            if traced:
                tracer.spans.append(("apps", "fempic.step", a, b))
            if i == 0:
                setup_s = b - t0
                perf_after_setup = sim.ctx.perf.to_dict()
            if i == ORACLE_STEPS - 1:
                n = sim.parts.size
                snapshot = {"pos": sim.pos.data[:n].copy(),
                            "phi": sim.phi.data.copy()}
    events = sim.ctx.perf.trace.events if traced else []
    return {"traced": traced, "setup_s": setup_s, "step_s": times[1:],
            "history": sim.history, "n_seeded": n_seeded,
            "perf_setup": perf_after_setup, "perf": sim.ctx.perf.to_dict(),
            "spans": tracer.spans + spans.recorder_spans(events),
            "counts": dict(tracer.counts), "snapshot": snapshot}


def _episode_main() -> None:
    """Entry of an episode process: arguments as JSON in ``argv[1]``,
    the pickled ``("ok", report)`` or ``("error", traceback)`` on
    stdout (anything the program prints goes to stderr)."""
    out = sys.stdout.buffer
    sys.stdout = sys.stderr
    args = json.loads(sys.argv[1])
    try:
        reply = ("ok", _episode(args["seed"], args["size"], args["traced"]))
    except BaseException:  # noqa: BLE001 - reported to the parent
        reply = ("error", traceback.format_exc())
    pickle.dump(reply, out, protocol=pickle.HIGHEST_PROTOCOL)
    out.flush()


def run_episode(seed: int, size: dict, traced: bool) -> dict:
    """One episode in a fresh interpreter process; returns its report.
    The process is waited for on every path out of here."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root), str(root / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [sys.executable, "-c",
            "from perfbench.fempic_move import _episode_main; "
            "_episode_main()",
            json.dumps({"seed": seed, "size": size, "traced": traced})]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0 or not out:
        raise RuntimeError(f"fempic episode exited with {proc.returncode}")
    status, payload = pickle.loads(out)
    if status != "ok":
        raise RuntimeError(f"fempic episode failed:\n{payload}")
    payload["wall_s"] = time.perf_counter() - t0
    return payload


def particle_steps(ep: dict) -> np.ndarray:
    """Particles advanced in each timed step: those in flight at its
    start plus those it injected."""
    h = ep["history"]
    n_before = np.concatenate([[ep["n_seeded"]], h["n_particles"][:-1]])
    return (n_before + np.asarray(h["injected"]))[1:]


def loop_delta(ep: dict, name: str, field: str) -> float:
    """A PerfRecorder counter accumulated over the timed steps."""
    after = ep["perf"].get(name, {}).get(field, 0.0)
    before = ep["perf_setup"].get(name, {}).get(field, 0.0)
    return after - before


def oracle_replay(seed: int, size: dict) -> tuple:
    """The first steps of the same seed on the ``seq`` oracle."""
    from repro.apps.fempic import FemPicSimulation
    sim = FemPicSimulation(config(seed, size).scaled(backend="seq"))
    sim.seed_uniform_plasma(size["seed_ppc"])
    sim.run(ORACLE_STEPS)
    n = sim.parts.size
    return sim.history, {"pos": sim.pos.data[:n], "phi": sim.phi.data}


def checks(res: common.Result, seed: int, size: dict,
           episodes: list) -> None:
    bad_steps = []
    for i, ep in enumerate(episodes):
        bad = common.particle_ledger_errors(ep["history"], ep["n_seeded"])
        res.operations(len(ep["history"]["n_particles"]), len(bad))
        bad_steps += [(i, t) for t in bad]
    res.check("particle_ledger", not bad_steps,
              "n[t+1] = n[t] + injected - removed on every step"
              + (f"; broken at (episode, step) {bad_steps[:5]}"
                 if bad_steps else ""))
    first = episodes[0]
    differ = [i for i, ep in enumerate(episodes)
              if common.histories_close(ep["history"], first["history"],
                                        rtol=0.0, atol=0.0)]
    res.check("episodes_reproduce", not differ,
              "every episode of one seed replays the same history"
              + (f"; episodes {differ} differ" if differ else ""))
    hist, state = oracle_replay(seed, size)
    bad = common.histories_close(first["history"], hist,
                                 steps=ORACLE_STEPS)
    for key, want in state.items():
        got = first["snapshot"][key]
        if got.shape != want.shape or not np.allclose(
                got, want, rtol=common.RTOL, atol=common.ATOL):
            bad.append(key)
    res.check("seq_oracle_replay", not bad,
              f"first {ORACLE_STEPS} steps vs seq at rtol={common.RTOL} "
              f"atol={common.ATOL}" + (f"; mismatched {bad}" if bad else ""))


def layer_metrics(res: common.Result, traced: list, plain: list) -> None:
    """Per-layer metrics of the traced episodes."""
    roots = [root for ep in traced
             for root in spans.step_roots(ep["spans"], "fempic.step")]
    n_steps = len(roots)
    per = 1e3 / n_steps
    phase_ms = dict.fromkeys(list(PHASES) + ["host"], 0.0)
    for root in roots:
        for child in root.children:
            phase = child.name.removeprefix("fempic.")
            if child.layer == "apps" and phase in PHASES:
                phase_ms[phase] += child.duration
                phase_ms["host"] -= child.duration
        phase_ms["host"] += root.duration
    for phase, t in phase_ms.items():
        res.metric(f"apps.fempic.{phase}_ms", t * per, "ms",
                   samples=n_steps)
    ledger = common.record_ledger(res, roots)
    res.metric("core.dispatch_ms", ledger["core"], "ms", samples=n_steps)
    calls = sum(1 for root in roots for node in root.walk()
                if node.layer == "core")
    res.metric("core.loop_calls_per_step", calls / n_steps, "count")

    for loop in LOOPS:
        seconds = sum(loop_delta(ep, loop, "seconds") for ep in traced)
        res.metric(f"backends.loop_ms.{loop}", seconds * per, "ms")
    hops = sum(loop_delta(ep, "Move", "hops") for ep in traced)
    moved = sum(loop_delta(ep, "Move", "n_total") for ep in traced)
    res.metric("core.move.hops_per_particle", hops / moved, "count")
    nbytes = sum(loop_delta(ep, name, "nbytes")
                 for ep in traced for name in ep["perf"])
    work = sum(particle_steps(ep).sum() for ep in traced)
    res.metric("backends.bytes_per_particle_step", nbytes / work,
               "B_computed")

    totals = spans.name_totals(roots, self_time=False)
    res.metric("fem.ksp_ms", totals.get("fem.ksp_solve", 0.0) * per, "ms")
    res.metric("fem.assemble_ms",
               spans.name_totals(roots, self_time=True).get("fem.Solve", 0.0)
               * per, "ms")
    iters = sum(ep["counts"].get("fem.ksp_iters", 0.0) for ep in traced)
    res.metric("fem.ksp_iters",
               iters / sum(len(ep["history"]["injected"]) for ep in traced),
               "count")
    setup_layers(res, traced)
    common.trace_overhead(res, traced, plain)


def setup_layers(res: common.Result, traced: list) -> None:
    """Construction-time spans (cold process) → set-up rows."""
    forest = [root for ep in traced
              for root in spans.build_forest(ep["spans"])]
    totals = spans.name_totals(forest, self_time=False)
    selfs = spans.name_totals(forest, self_time=True)
    n = len(traced)
    res.metric("mesh.build_s", totals.get("mesh.duct_mesh", 0.0) / n, "s")
    res.metric("mesh.overlay_s", totals.get("mesh.overlay_build", 0.0) / n,
               "s")
    res.metric("fem.stiffness_s",
               (totals.get("fem.build_stiffness", 0.0)
                + totals.get("fem.lumped_node_volumes", 0.0)) / n, "s")
    res.metric("translator.translate_s", sum(
        t for key, t in selfs.items() if key.startswith("translator."))
        / n, "s")
    res.metric("apps.seed_s", totals.get("apps.seed", 0.0) / n, "s")


def run(res: common.Result, seed: int, seconds: float, trace: bool,
        size: str = "full") -> None:
    dims = SIZES[size]
    episodes = common.repeat_episodes(
        lambda traced: run_episode(seed, dims, traced), seconds,
        [False, True] if trace else [False], res)
    plain = [ep for ep in episodes if not ep["traced"]]
    traced = [ep for ep in episodes if ep["traced"]]
    if trace:
        layer_metrics(res, traced, plain)
        spans.export({f"episode {i}": ep["spans"]
                      for i, ep in enumerate(traced)},
                      common.OUT_DIR / "trace-fempic-move.json")
    else:
        common.step_metrics(
            res, [ep["setup_s"] for ep in plain],
            [ep["step_s"] for ep in plain],
            sum(particle_steps(ep).sum() for ep in plain))
        res.metric("peak_rss_mb", common.peak_rss_mb(1), "MB")
    res.info("episodes", len(episodes), "count",
             traced=len(traced), plain=len(plain))
    checks(res, seed, dims, episodes)
