"""Statistics, provenance, output checks and result printing shared by
the workloads."""
from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

#: where runs leave their full result and Chrome trace (git-ignored)
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

#: the conformance harness's comparison tolerances
#: (``repro.verify.conformance.compare_states``)
RTOL = 1e-9
ATOL = 1e-11


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail(values: Sequence[float], q: float) -> dict:
    """The ``q``-th percentile with its sample count and the number of
    samples beyond it (a tail is trusted with at least ten beyond)."""
    v = np.asarray(values, dtype=float)
    p = percentile(v, q)
    return {"value": p, "samples": int(v.size),
            "beyond": int(np.count_nonzero(v > p))}


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def peak_rss_mb(concurrent_children: int) -> float:
    """Peak resident memory of this process plus ``concurrent_children``
    times the largest peak among its reaped child processes."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + concurrent_children * child) / 1024.0


def provenance(seed: int, seconds: int, trace: int, params: dict) -> dict:
    import scipy
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "cc": shutil.which("cc") is not None,
            "platform": platform.platform(),
            "seed": seed, "seconds": seconds, "trace": trace,
            "params": params}


def histories_close(got: dict, want: dict, *, rtol: float = RTOL,
                    atol: float = ATOL, steps: Optional[int] = None) -> List[str]:
    """Keys whose series differ beyond the tolerances (first ``steps``
    entries only, when given).  Integer series must match exactly."""
    bad = []
    if set(got) != set(want):
        return [f"keys {sorted(got)} != {sorted(want)}"]
    for key in sorted(want):
        a = np.asarray(got[key][:steps] if steps else got[key])
        b = np.asarray(want[key][:steps] if steps else want[key])
        if a.shape != b.shape or not np.allclose(a, b, rtol=rtol,
                                                 atol=atol):
            bad.append(key)
    return bad


def particle_ledger_errors(history: dict, n_start: int) -> List[int]:
    """Steps where ``n[t] != n[t-1] + injected[t] - removed[t]``."""
    bad = []
    prev = n_start
    for t, (n, inj, rem) in enumerate(zip(history["n_particles"],
                                          history["injected"],
                                          history["removed"])):
        if n != prev + inj - rem:
            bad.append(t)
        prev = n
    return bad


def repeat_episodes(run_one, seconds: float, modes: Sequence[bool],
                    res: "Result", failures: tuple = (),
                    ops_per_episode: int = 1) -> List[dict]:
    """Run whole episodes, cycling through ``modes`` (traced or not),
    until another one of average length would overrun ``seconds``; at
    least one successful episode per mode.  An episode raising one of
    ``failures`` counts as failed operations and the run goes on."""
    episodes: List[dict] = []
    attempts = 0
    t_start = time.perf_counter()
    while True:
        traced = modes[attempts % len(modes)]
        attempts += 1
        try:
            episodes.append(run_one(traced))
        except failures as exc:
            res.operations(ops_per_episode, ops_per_episode)
            res.check("episode_ran", False, repr(exc))
        elapsed = time.perf_counter() - t_start
        covered = {ep["traced"] for ep in episodes} >= set(modes)
        if covered and elapsed * (attempts + 1) / attempts > seconds:
            return episodes
        if not covered and elapsed > 3 * seconds:
            raise RuntimeError("no successful episode in time")


class Result:
    """Everything one run reports: metrics with units and sample counts,
    output checks, provenance; printed as summary lines plus the final
    JSON line."""

    def __init__(self, workload: str, prov: dict):
        self.workload = workload
        self.provenance = prov
        self.metrics: Dict[str, dict] = {}
        self.extra: Dict[str, dict] = {}
        self.checks: List[dict] = []
        self.attempted = 0
        self.failed = 0

    def metric(self, name: str, value: float, unit: str,
               samples: Optional[int] = None, **info) -> None:
        entry = {"value": float(value), "unit": unit}
        if samples is not None:
            entry["samples"] = int(samples)
        entry.update(info)
        self.metrics[name] = entry

    def info(self, name: str, value, unit: str, **more) -> None:
        """A figure reported in the full result only (not a metric the
        benchmark contract compares)."""
        self.extra[name] = {"value": value, "unit": unit, **more}

    def operations(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """An output check; a failed check counts as a failed operation."""
        self.checks.append({"name": name, "ok": bool(ok),
                            "detail": detail})
        self.operations(1, 0 if ok else 1)
        return bool(ok)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["ok"] for c in self.checks)

    def emit(self, names: Sequence[str], out_dir: Path = OUT_DIR) -> dict:
        """Print the summary and the final JSON line; ``names`` are the
        metrics the final line carries (the contract's list)."""
        missing = [n for n in names if n not in self.metrics]
        if missing:
            raise RuntimeError(f"{self.workload}: metrics not measured: "
                               f"{missing}")
        for bad in (n for n in names
                    if not math.isfinite(self.metrics[n]["value"])):
            raise RuntimeError(f"{self.workload}: metric {bad} is not "
                               "finite")
        full = {"workload": self.workload,
                "provenance": self.provenance,
                "correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "failed_frac": self.failed / max(self.attempted, 1),
                "metrics": self.metrics, "info": self.extra,
                "checks": self.checks}
        out_dir.mkdir(parents=True, exist_ok=True)
        p = self.provenance
        path = out_dir / (f"{self.workload}-seed{p['seed']}-"
                          f"trace{p['trace']}.json")
        path.write_text(json.dumps(full, indent=1, sort_keys=True))
        print(f"# {self.workload}  seed={p['seed']}  "
              f"cpu_count={p['cpu_count']}  python={p['python']}  "
              f"numpy={p['numpy']}  scipy={p['scipy']}  cc={p['cc']}")
        print(f"# params {json.dumps(p['params'], sort_keys=True)}")
        for name, m in sorted(self.metrics.items()):
            n = f"  (n={m['samples']})" if "samples" in m else ""
            print(f"{name:<44} {m['value']:>14.6g} {m['unit']}{n}")
        for name, m in sorted(self.extra.items()):
            if isinstance(m["value"], (int, float)):
                print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
        for c in self.checks:
            print(f"check {c['name']:<38} {'ok' if c['ok'] else 'FAILED'}"
                  f" {c['detail']}")
        print(f"failed_frac {self.failed}/{self.attempted}  "
              f"full result: {path}")
        line = {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {n: {"value": self.metrics[n]["value"],
                                "unit": self.metrics[n]["unit"]}
                            for n in names}}
        sys.stdout.write(json.dumps(line) + "\n")
        sys.stdout.flush()
        return line


def step_metrics(res: Result, setup: Sequence[float],
                 episode_step_s: Sequence[Sequence[float]],
                 particle_steps: float) -> None:
    """The end-to-end metrics of a step workload; ``episode_step_s``
    holds each episode's timed steps.  The central figure is the median
    over episodes of the mean step: a mean, because on a shared host a
    step's time falls into a fast and a slow mode and the median of the
    mixture jumps between them; a median over episodes, so one disturbed
    episode does not move it."""
    steps = np.concatenate([np.asarray(s) for s in episode_step_s]) * 1e3
    res.metric("setup_s", float(np.median(setup)), "s", samples=len(setup))
    res.metric("latency_ms_mean", float(np.median(
        [np.mean(s) for s in episode_step_s])) * 1e3, "ms",
        samples=steps.size, episodes=len(episode_step_s))
    res.info("step_ms_p50", percentile(steps, 50), "ms", samples=steps.size)
    p90 = tail(steps, 90)
    res.metric("latency_ms_p90", p90["value"], "ms",
               samples=p90["samples"], beyond=p90["beyond"])
    res.metric("throughput_per_s", particle_steps / (steps.sum() / 1e3),
               "1/s", samples=steps.size)


def trace_overhead(res: Result, traced: List[dict],
                   plain: List[dict]) -> None:
    """Traced over untraced median step time, minus one."""
    def median(episodes):
        return percentile(np.concatenate([ep["step_s"] for ep in episodes]),
                          50)
    res.metric("perf.trace_overhead_frac",
               median(traced) / median(plain) - 1.0, "fraction")


#: layers of the step ledger; ``remainder`` is the steps' own self time
LEDGER_ROWS = ("apps", "core", "backends", "fem", "runtime", "translator",
               "remainder")


def record_ledger(res: Result, roots) -> Dict[str, float]:
    """Per-step self time of each layer under the step spans ``roots``,
    plus the remainder row; checks that the rows sum to the step wall
    time.  Returns the rows in ms per step."""
    from .spans import layer_self_times

    totals = dict.fromkeys(LEDGER_ROWS, 0.0)
    wall = 0.0
    for root in roots:
        wall += root.duration
        for layer, t in layer_self_times(root).items():
            if layer not in totals:
                raise RuntimeError(f"span layer {layer!r} has no ledger row")
            totals[layer] += t
    per = 1e3 / len(roots)
    rows = {layer: t * per for layer, t in totals.items()}
    step = wall * per
    for layer, t in rows.items():
        res.metric(f"ledger.{layer}_ms", t, "ms", samples=len(roots))
    res.metric("ledger.step_ms", step, "ms", samples=len(roots))
    total = sum(rows.values())
    res.check("ledger_closes",
              abs(total - step) <= 1e-9 * step
              and rows["remainder"] >= -0.01 * step,
              f"rows sum to {total:.6f} of {step:.6f} ms/step; "
              f"remainder {rows['remainder']:.6f} ms")
    return rows
