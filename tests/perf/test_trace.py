"""Chrome-trace export of loop timelines."""
import json


from repro.apps.fempic import FemPicConfig, FemPicSimulation
from repro.perf import attach_trace, export_chrome_trace


def test_trace_records_loop_events():
    sim = FemPicSimulation(FemPicConfig.smoke().scaled(n_steps=0))
    (log,) = attach_trace(sim.ctx.perf)
    sim.run(2)
    names = {e[0] for e in log.events}
    assert {"CalcPosVel", "Move", "DepositCharge"} <= names
    assert all(dur >= 0 for _, _, dur in log.events)
    # starts are monotone non-decreasing within a serial run
    starts = [t0 for _, t0, _ in log.events]
    assert starts == sorted(starts)


def test_export_chrome_trace_json(tmp_path):
    sim = FemPicSimulation(FemPicConfig.smoke().scaled(n_steps=0))
    (log,) = attach_trace(sim.ctx.perf)
    sim.run(1)
    path = export_chrome_trace(log, tmp_path / "trace.json")
    data = json.loads(path.read_text())
    events = data["traceEvents"]
    assert any(e.get("ph") == "X" and e["name"] == "Move"
               for e in events)
    assert any(e.get("ph") == "M" for e in events)


def test_multi_rank_lanes(tmp_path):
    cfg = FemPicConfig.smoke().scaled(n_steps=3)
    dist = FemPicSimulation(cfg, nranks=2)
    logs = attach_trace(*[rk.ctx.perf for rk in dist.ranks])
    dist.run()
    path = export_chrome_trace(logs, tmp_path / "trace.json",
                               lane_names=["rank 0", "rank 1"])
    data = json.loads(path.read_text())
    pids = {e["pid"] for e in data["traceEvents"]}
    assert pids == {0, 1}


def test_trace_off_by_default():
    sim = FemPicSimulation(FemPicConfig.smoke().scaled(n_steps=0))
    sim.run(1)
    assert sim.ctx.perf.trace is None
