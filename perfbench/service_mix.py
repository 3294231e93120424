"""Workload ``service-mix``: rounds of a paced open loop of seeded jobs
into the warm pool, each followed by a saturating burst.

One process drives a 2-worker service over two connections: one submits
jobs on schedule (the open loop), the other waits for their results.
The job catalogue is tiny advec (6×6, 2 ppc, 10 steps), small fempic
(2×2×6, 10 steps) and small cabana (4×4×8, 8 ppc, 8 steps) from three
tenants with mixed priorities.  Each app comes in a few geometries (the
same cell counts, other domain lengths), so the workers' object cache
both hits and misses.  The same ``core`` dispatch as ``fempic-move``
runs here on tiny sets, where per-call overhead dominates.

The offered rate is fixed at about a third of the pool's capacity for
this mix (capacity measured on a 2-core host: 125 advec, 30 fempic or
29 cabana jobs/s, so 34.9 jobs/s for the mix), so queue wait, not
overload, sets the tail.  The host's speed drifts by up to ~40% over
minutes, and capacity with it; at half capacity a slow spell that cut
capacity to 25 jobs/s tripled the p90 (61 → 179 ms).  A job's time runs
from when it was due to be sent until the server finished it.

The run alternates rounds of an open-loop segment and a burst, and
reports the median over rounds of each round's figure, so a few seconds
of a slow host move one round, not the result.
"""
from __future__ import annotations

import json
import queue
import threading
import time
from contextlib import nullcontext
from typing import Dict, List

import numpy as np

from . import common, spans

N_WORKERS = 2
#: offered rate of the open loop (jobs/s)
RATE = 12.0
MIX = {"advec": 0.2, "fempic": 0.45, "cabana": 0.35}
#: mixed but close priorities: wide gaps made preemption storms (checkpoint,
#: requeue, resume) that moved the p90 from run to run
TENANTS = {"alpha": (5, 6), "beta": (4, 5), "gamma": (3, 4)}
#: share of the run's seconds given to the open-loop segments (the
#: bursts and the drains take the rest)
OPEN_SHARE = 0.6
#: the workload, and a smoke size for the benchmark's own tests; the
#: burst is per round
SIZES = {"full": {"burst": {"advec": 18, "fempic": 40, "cabana": 32},
                  "rounds": 4, "setup_samples": 5},
         "smoke": {"burst": {"advec": 2, "fempic": 2, "cabana": 2},
                   "rounds": 2, "setup_samples": 1}}
RESULT_TIMEOUT = 120.0


#: two geometries per app: the same cells and the same work in other
#: domain lengths, so the workers' object cache both hits and misses
#: (cabana keeps dz the smallest spacing, hence the same time step)
GEOMETRIES = {"advec": ({"lx": 1.0, "ly": 1.0}, {"lx": 1.2, "ly": 0.9}),
              "fempic": ({"lx": 1.0, "ly": 1.0}, {"lx": 1.25, "ly": 0.8}),
              "cabana": ({"lx": 1.0, "ly": 1.0}, {"lx": 1.2, "ly": 1.1})}
SHAPES = {"advec": {"nx": 6, "ny": 6, "ppc": 2, "n_steps": 10},
          "fempic": {"nx": 2, "ny": 2, "nz": 6, "plasma_den": 2000.0,
                     "n0": 2000.0, "n_steps": 10},
          "cabana": {"nx": 4, "ny": 4, "nz": 8, "ppc": 8, "n_steps": 8}}


def catalogue(seed: int) -> Dict[str, List[dict]]:
    """Job specs per app: each geometry with two seeded app seeds
    (cabana's initial state has no seed)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    app_seeds = [int(v) for v in rng.integers(1, 1000, 2)]
    out = {}
    for app, shape in SHAPES.items():
        seeds = [{}] if app == "cabana" else [{"seed": v} for v in app_seeds]
        out[app] = [dict(shape, **geo, **extra)
                    for geo in GEOMETRIES[app] for extra in seeds]
    return out


def arrivals(seed: int, duration: float, round_: int = 0) -> List[dict]:
    """Round ``round_``'s open-loop schedule: one job every ``1/RATE``
    seconds, the
    apps in seeded order with the mix's exact shares in every block of
    20 jobs.  Evenly paced arrivals leave queue wait to the job sizes
    and priorities; Poisson bursts moved the p90 by ±30% from run to
    run on a 2-core host."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2, round_]))
    cat = catalogue(seed)
    block = [app for app, share in MIX.items()
             for _ in range(round(20 * share))]
    n = int(duration * RATE)
    kinds: List[str] = []
    while len(kinds) < n:
        kinds += [block[i] for i in rng.permutation(len(block))]
    return [dict(_job(rng, cat, kinds[i]), due=(i + 0.5) / RATE)
            for i in range(n)]


def burst(seed: int, counts: Dict[str, int],
          round_: int = 0) -> List[dict]:
    """Round ``round_``'s saturating burst, all at one priority (no
    preemptions)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3, round_]))
    cat = catalogue(seed)
    kinds = [app for app, n in counts.items() for _ in range(n)]
    return [dict(_job(rng, cat, kinds[i]), priority=5)
            for i in rng.permutation(len(kinds))]


def _job(rng, cat: dict, app: str) -> dict:
    tenant = list(TENANTS)[rng.integers(len(TENANTS))]
    variants = cat[app]
    return {"app": app,
            "params": dict(variants[rng.integers(len(variants))]),
            "tenant": tenant,
            "priority": int(rng.choice(TENANTS[tenant]))}


def params(seed: int, size: str) -> dict:
    return dict(SIZES[size], workers=N_WORKERS, rate_per_s=RATE, mix=MIX,
                tenants={t: list(p) for t, p in TENANTS.items()},
                open_share=OPEN_SHARE, catalogue=catalogue(seed))


def _warm_up(client, seed: int) -> None:
    """Two jobs of each app: both workers boot and translate."""
    cat = catalogue(seed)
    ids = [client.submit({"app": app, "params": dict(cat[app][0]),
                          "tenant": "warmup"})
           for app in cat for _ in range(N_WORKERS)]
    for job_id in ids:
        state = client.result(job_id, timeout=RESULT_TIMEOUT)["state"]
        if state != "done":
            raise RuntimeError(f"warm-up job {job_id} ended {state}")


def start_service(seed: int) -> tuple:
    """A fresh service: returns ``(handle, pool_start_s, setup_s)``."""
    from repro.service import Client, start_server_thread
    t0 = time.perf_counter()
    handle = start_server_thread(port=0, n_workers=N_WORKERS)
    pool = time.perf_counter() - t0
    try:
        with Client(handle.host, handle.port) as client:
            _warm_up(client, seed)
    except BaseException:
        handle.stop()
        raise
    return handle, pool, time.perf_counter() - t0


def drive(handle, jobs: List[dict], tracer=None) -> tuple:
    """Send each job at its ``due`` offset from now (at once without
    one) on one connection while another collects the results; returns
    ``(records, errors)`` once every sent job has ended."""
    from repro.service import Client
    from repro.service.client import ServiceError

    def call(name, fn, *args, **kwargs):
        if tracer is not None:
            fn = tracer.wrap("service", f"client.{name}", fn)
        return fn(*args, **kwargs)

    results: Dict[str, dict] = {}
    errors: List[str] = []
    pending: "queue.Queue" = queue.Queue()

    def collect(client) -> None:
        while (job_id := pending.get()) is not None:
            try:
                results[job_id] = call("result", client.result, job_id,
                                       timeout=RESULT_TIMEOUT)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                errors.append(f"{job_id}: {exc!r}")

    sent = []
    with Client(handle.host, handle.port) as submitter, \
            Client(handle.host, handle.port) as collector:
        thread = threading.Thread(target=collect, args=(collector,),
                                  name="perfbench-collector")
        thread.start()
        try:
            start = time.monotonic()
            for job in jobs:
                due = start + job.get("due", 0.0)
                pause = due - time.monotonic()
                if pause > 0:
                    time.sleep(pause)
                t_send = time.monotonic()
                spec = {k: job[k] for k in ("app", "params", "tenant",
                                            "priority")}
                try:
                    job_id = call("submit", submitter.submit, spec)
                except ServiceError as exc:
                    errors.append(f"refused: {exc!r}")
                    continue
                pending.put(job_id)
                sent.append({"job_id": job_id, "due": due, "sent": t_send,
                             "job": spec})
        finally:
            pending.put(None)
            thread.join(RESULT_TIMEOUT + 30.0)
        if thread.is_alive():
            raise TimeoutError("results did not arrive in time")
    records = [dict(s, result=results[s["job_id"]],
                    finished=handle.server.jobs[s["job_id"]].finished_at)
               for s in sent if s["job_id"] in results]
    return records, errors


def job_ms(records: List[dict]) -> np.ndarray:
    return np.array([(r["finished"] - r["due"]) * 1e3 for r in records])


def cold_history(job: dict, tracer=None) -> tuple:
    """The job run in this process with the object cache off, encoded
    the way the service encodes it; returns ``(history, steps)``."""
    from repro.service import jobs
    from repro.service.server import _json_default

    spec = jobs.validate_job(dict(job))
    span = tracer.span if tracer else (lambda *a: nullcontext())
    with span("apps", "job.build"):
        sim, history = jobs.build_sim(spec)
    if tracer is not None:
        from repro.perf.trace import TraceLog
        sim.ctx.perf.trace = TraceLog(origin=0.0)
    for _ in range(spec.n_steps):
        a = time.perf_counter()
        jobs.step_once(spec, sim, history)
        if tracer is not None:
            tracer.spans.append(("apps", "job.step", a, time.perf_counter()))
    if tracer is not None:
        tracer.spans += spans.recorder_spans(sim.ctx.perf.trace.events)
    close = getattr(getattr(sim.ctx, "backend", None), "close", None)
    if close:
        close()
    return json.loads(json.dumps(history, default=_json_default)), \
        spec.n_steps


def _key(job: dict) -> str:
    return json.dumps({"app": job["app"], "params": job["params"]},
                      sort_keys=True)


def reference_targets() -> list:
    from repro.apps.advec import simulation as asim
    from repro.apps.cabana import simulation as csim
    from repro.apps.fempic import simulation as fsim

    from .fempic_move import module_targets
    out = module_targets(fsim)
    for mod in (asim, csim):
        out += [(mod, attr, "core", attr)
                for attr in ("par_loop", "particle_move")
                if hasattr(mod, attr)]
        if hasattr(mod, "HexMesh"):
            out.append((mod, "HexMesh", "mesh", "hex_mesh"))
    return out


def checks(res: common.Result, records: List[dict], errors: List[str],
           tracer=None) -> Dict[str, object]:
    """Every job done and bit-equal to a cold in-process run of its
    spec; returns the per-spec reference step counts."""
    refs: Dict[str, tuple] = {}
    with (tracer.patched(reference_targets()) if tracer else nullcontext()):
        for r in records:
            key = _key(r["job"])
            if key not in refs:
                refs[key] = cold_history(r["job"], tracer)
    bad = [r["job_id"] for r in records
           if r["result"]["state"] != "done"
           or r["result"]["result"]["history"] != refs[_key(r["job"])][0]]
    res.operations(len(records) + len(errors), len(bad) + len(errors))
    res.check("jobs_match_cold_runs", not bad and not errors,
              f"{len(records)} jobs done and bit-equal to a cold "
              f"in-process run of their spec ({len(refs)} specs)"
              + (f"; failed {bad[:5]} {errors[:3]}" if bad or errors
                 else ""))
    return refs


def run(res: common.Result, seed: int, seconds: float, trace: bool,
        size: str = "full") -> None:
    from repro.service import jobs
    jobs.APPS()     # import the apps before the pool forks its workers

    samples = []
    n_samples = SIZES[size]["setup_samples"]
    for i in range(n_samples):
        handle, pool_s, setup_s = start_service(seed)
        samples.append((pool_s, setup_s))
        if i < n_samples - 1:
            handle.stop()
    tracer = spans.Tracer() if trace else None
    open_s = OPEN_SHARE * seconds
    n_rounds = SIZES[size]["rounds"]
    try:
        if trace:
            half = arrivals(seed, open_s / 2)
            rec_plain, errors = drive(handle, half)
            rec_traced, more = drive(handle, half, tracer)
            records, errors = rec_plain + rec_traced, errors + more
        else:
            rounds, errors = [], []
            for i in range(n_rounds):
                rec, more = drive(handle,
                                  arrivals(seed, open_s / n_rounds, i))
                t_burst = time.monotonic()
                rec_burst, more_burst = drive(
                    handle, burst(seed, SIZES[size]["burst"], i))
                last = max(r["finished"] for r in rec_burst)
                rounds.append({"open": rec, "burst": rec_burst,
                               "jobs_per_s": len(rec_burst)
                               / (last - t_burst)})
                errors += more + more_burst
            records = [r for rd in rounds for r in rd["open"]]
            burst_records = [r for rd in rounds for r in rd["burst"]]
        from repro.service import Client
        with Client(handle.host, handle.port) as client:
            stats = client.stats()
    finally:
        handle.stop()

    if trace:
        service_layers(res, rec_plain, rec_traced, stats, samples)
        refs = checks(res, records, errors, tracer)
        reference_layers(res, tracer, sum(n for _, n in refs.values()),
                         len(refs))
        spans.export({"client": [s for s in tracer.spans
                                 if s[0] == "service"],
                      "reference runs": [s for s in tracer.spans
                                         if s[0] != "service"]},
                     common.OUT_DIR / "trace-service-mix.json")
    else:
        per_round = [job_ms(rd["open"]) for rd in rounds]
        res.metric("setup_s", float(np.median([s for _, s in samples])),
                   "s", samples=len(samples))
        # a mean, not a median: on a shared host the same job runs in a
        # fast or a slow mode (~50 or ~72 ms for one small fempic spec on
        # a 2-core host), and the median of the mixture jumps between
        # them with the host's load
        res.metric("latency_ms_mean", float(np.median(
            [float(np.mean(done)) for done in per_round])), "ms",
            samples=len(records), rounds=n_rounds)
        res.metric("latency_ms_p90", float(np.median(
            [common.percentile(done, 90) for done in per_round])), "ms",
            samples=len(records), rounds=n_rounds,
            per_round=min(done.size for done in per_round))
        res.info("job_ms_p50", common.percentile(job_ms(records), 50), "ms",
                 samples=len(records))
        p95 = common.tail(job_ms(records), 95)
        res.info("job_ms_p95", p95["value"], "ms", samples=p95["samples"],
                 beyond=p95["beyond"])
        res.metric("throughput_per_s", float(np.median(
            [rd["jobs_per_s"] for rd in rounds])), "1/s",
            samples=len(burst_records), rounds=n_rounds)
        res.metric("peak_rss_mb", common.peak_rss_mb(N_WORKERS), "MB")
        checks(res, records + burst_records, errors)
    res.info("jobs_open_loop", len(records), "count")


def service_layers(res: common.Result, plain: List[dict],
                   traced: List[dict], stats: dict, samples: list) -> None:
    wait = np.array([r["result"]["wait_seconds"] for r in traced]) * 1e3
    run_ms = np.array([r["result"]["result"]["elapsed"]
                       for r in traced]) * 1e3
    latency = np.array([r["result"]["latency_seconds"]
                        for r in traced]) * 1e3
    res.metric("service.queue_wait_ms_p50", common.percentile(wait, 50),
               "ms", samples=wait.size)
    p95 = common.tail(wait, 95)
    res.metric("service.queue_wait_ms_p95", p95["value"], "ms",
               samples=p95["samples"], beyond=p95["beyond"])
    res.metric("service.worker_run_ms_p50", common.percentile(run_ms, 50),
               "ms", samples=run_ms.size)
    res.metric("service.overhead_ms_p50",
               common.percentile(latency - wait - run_ms, 50), "ms",
               samples=latency.size)
    last_cache: Dict[int, dict] = {}
    for r in sorted(plain + traced, key=lambda r: r["finished"]):
        last_cache[r["result"]["placements"][-1]] = \
            r["result"]["result"]["cache"]
    hits = sum(c["hits"] for c in last_cache.values())
    misses = sum(c["misses"] for c in last_cache.values())
    res.metric("service.objcache_hit_ratio", hits / (hits + misses),
               "fraction")
    res.metric("service.preemptions", stats["counters"]["preemptions"],
               "count")
    res.metric("service.respawns", stats["pool"]["respawns"], "count")
    late = np.array([(r["sent"] - r["due"]) * 1e3 for r in plain + traced])
    res.metric("service.gen_late_ms_p95", common.percentile(late, 95),
               "ms", samples=late.size)
    res.metric("service.pool_start_s",
               float(np.median([p for p, _ in samples])), "s",
               samples=len(samples))
    res.metric("perf.trace_overhead_frac",
               common.percentile(job_ms(traced), 50)
               / common.percentile(job_ms(plain), 50) - 1.0, "fraction")


def reference_layers(res: common.Result, tracer, steps: int,
                     n_specs: int) -> None:
    """Layers under the jobs, from the traced cold reference runs of the
    catalogue's specs (each spec once)."""
    forest = spans.build_forest(s for s in tracer.spans
                                if s[0] != "service")
    roots = [r for r in forest if r.name == "job.step"]
    totals = spans.name_totals(forest, self_time=False)
    selfs = spans.name_totals(forest, self_time=True)
    per = 1e3 / steps
    res.metric("core.dispatch_ms", sum(
        t for k, t in selfs.items() if k.startswith("core.")) * per, "ms",
        samples=steps)
    res.metric("core.loop_calls_per_step", sum(
        1 for root in roots for node in root.walk()
        if node.layer == "core") / steps, "count")
    for loop in ("Move", "CalcPosVel", "DepositCharge", "Move_Deposit",
                 "Interpolate", "AdvanceE", "AdvanceB"):
        res.metric(f"backends.loop_ms.{loop}",
                   totals.get(f"backends.{loop}", 0.0) * per, "ms")
    res.metric("fem.ksp_ms", totals.get("fem.ksp_solve", 0.0) * per, "ms")
    res.metric("fem.assemble_ms", selfs.get("fem.Solve", 0.0) * per, "ms")
    res.metric("fem.ksp_iters", tracer.counts.get("fem.ksp_iters", 0.0)
               / steps, "count")
    res.metric("mesh.build_s", (totals.get("mesh.duct_mesh", 0.0)
                                + totals.get("mesh.hex_mesh", 0.0))
               / n_specs, "s")
    res.metric("fem.stiffness_s",
               (totals.get("fem.build_stiffness", 0.0)
                + totals.get("fem.lumped_node_volumes", 0.0)) / n_specs,
               "s")
    res.metric("translator.translate_s", sum(
        t for k, t in selfs.items() if k.startswith("translator.")), "s")
