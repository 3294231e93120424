"""The benchmark's own tests, at smoke size.

    python -m pytest perfbench/tests
"""
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import cabana_2rank, common, fempic_move, service_mix, spans

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    out = run_bench(workload, trace)
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == \
        {name: m["unit"] for name, m in line["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def session_processes(sid: int) -> list:
    """Processes (zombies too) still in session ``sid``."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            found.append(int(stat.parent.name))
    return found


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc")
@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_process_outlives_a_run(workload):
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", "0", "--smoke"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    assert proc.wait(timeout=300) == 0
    assert session_processes(proc.pid) == []


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("fempic-move", 0, root=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert unit.match(m["unit"]) and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and unit.match(m["unit"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower" \
        and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * SPEC["run_seconds"] < 3420


def smoke_fempic_episode(seed=5):
    return fempic_move._episode(seed, fempic_move.SIZES["smoke"], False)


def test_fempic_checks_catch_a_perturbed_history():
    size = fempic_move.SIZES["smoke"]
    ep = smoke_fempic_episode()
    res = common.Result("fempic-move", {})
    fempic_move.checks(res, 5, size, [ep])
    assert res.correct

    ep["history"]["removed"][1] += 1
    res = common.Result("fempic-move", {})
    fempic_move.checks(res, 5, size, [ep])
    assert not res.correct and res.failed >= 1
    assert {c["name"]: c["ok"] for c in res.checks}["particle_ledger"] \
        is False


def test_cabana_checks_catch_a_perturbed_history():
    size = cabana_2rank.SIZES["smoke"]
    cfg = cabana_2rank.config(5, size)
    ep = cabana_2rank.run_episode(cfg, size["steps"], traced=False)
    res = common.Result("cabana-2rank", {})
    cabana_2rank.checks(res, cfg, size["steps"], [ep])
    assert res.correct

    ep["ranks"][1]["history"]["e_energy"][2] *= 1.0 + 1e-6
    res = common.Result("cabana-2rank", {})
    cabana_2rank.checks(res, cfg, size["steps"], [ep])
    assert not res.correct and res.failed == size["steps"] + 1


def test_service_checks_catch_a_perturbed_history():
    job = {"app": "advec", "params": service_mix.catalogue(5)["advec"][0],
           "tenant": "alpha", "priority": 5}
    history, _ = service_mix.cold_history(job)
    record = {"job_id": "job-1", "job": job,
              "result": {"state": "done", "result": {"history": history}}}
    res = common.Result("service-mix", {})
    service_mix.checks(res, [record], [])
    assert res.correct

    perturbed = json.loads(json.dumps(history))
    perturbed["mean_disp"][3] = np.nextafter(perturbed["mean_disp"][3], 1.0)
    record["result"]["result"]["history"] = perturbed
    res = common.Result("service-mix", {})
    service_mix.checks(res, [record], [])
    assert not res.correct and res.failed == 2


def test_ledger_rows_sum_to_the_step_wall_time():
    recorded = [
        ("apps", "step", 0.0, 10.0),
        ("core", "par_loop", 1.0, 4.0),
        ("translator", "generate", 1.2, 1.8),
        ("backends", "Loop", 1.5, 3.5),       # overhangs the translator
        ("runtime", "halo", 5.0, 7.0),
        ("apps", "step", 10.0, 11.0),
    ]
    roots = spans.build_forest(recorded)
    assert [r.duration for r in roots] == [10.0, 1.0]
    rows = spans.layer_self_times(roots[0])
    assert rows["core"] == pytest.approx(3.0 - 0.6 - 2.0)
    assert rows["backends"] == 2.0 and rows["runtime"] == 2.0
    assert rows["remainder"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert sum(rows.values()) == pytest.approx(10.0)

    res = common.Result("synthetic", {})
    ledger = common.record_ledger(res, roots)
    assert res.correct
    assert sum(ledger.values()) == pytest.approx(
        res.metrics["ledger.step_ms"]["value"])


class _Owner:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return (cls, x)


def test_tracer_wraps_and_restores_every_kind_of_target():
    module = types.ModuleType("fake")
    module.fn = lambda x: 2 * x
    original_fn = module.fn
    obj = _Owner()
    tracer = spans.Tracer()
    targets = [(module, "fn", "core", "fn"),
               (_Owner, "method", "fem", "method"),
               (_Owner, "build", "mesh", "build"),
               (obj, "method", "apps", "bound",
                lambda t, r: t.counts.__setitem__("seen", r))]
    with tracer.patched(targets):
        assert module.fn(2) == 4
        assert _Owner().method(1) == 2
        assert _Owner.build(3) == (_Owner, 3)
        assert obj.method(5) == 6
    assert [s[1] for s in tracer.spans] == ["fn", "method", "build",
                                            "method", "bound"]
    assert tracer.counts["seen"] == 6
    assert module.fn is original_fn
    assert "method" not in vars(obj)
    assert isinstance(vars(_Owner)["build"], classmethod)
    assert _Owner().method(1) == 2 and len(tracer.spans) == 5
