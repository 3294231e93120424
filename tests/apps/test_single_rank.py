"""One class per app serves every rank count: at one rank the merged
FemPIC and 2-D sheet classes must replay the histories the dedicated
single-node classes recorded (``single_rank_histories.json``, seq
backend) bit for bit, and FemPIC must run the same loops per step."""
import json
from pathlib import Path

import pytest

from repro.apps.fempic import FemPicConfig, FemPicSimulation
from repro.apps.twod import TwoDConfig, TwoDSheetModel

RECORDED = json.loads(
    (Path(__file__).parent / "single_rank_histories.json").read_text())

SMOKE = FemPicConfig.smoke().scaled(backend="seq")
FEMPIC = {
    "fempic_mh": SMOKE,
    "fempic_dh": SMOKE.scaled(move_strategy="dh"),
    "fempic_long": SMOKE.scaled(n_steps=8, dt=0.2),
    "fempic_thermal": SMOKE.scaled(n_steps=8, dt=0.2,
                                   injection_temperature=0.5),
    "fempic_collide": SMOKE.scaled(collision_frequency=5.0),
}


@pytest.mark.parametrize("name", sorted(FEMPIC))
def test_fempic_one_rank_replays_recorded_history(name):
    sim = FemPicSimulation(FEMPIC[name])
    sim.run()
    assert sim.nranks == 1
    assert sim.history == RECORDED[name]


def test_twod_one_rank_replays_recorded_history():
    sim = TwoDSheetModel(TwoDConfig(nx=4, ny=4, ppc=2, n_steps=5,
                                    backend="seq"))
    sim.run()
    assert sim.history == RECORDED["twod"]


@pytest.mark.parametrize("move", ["mh", "dh"])
@pytest.mark.parametrize("backend", ["seq", "vec"])
def test_fempic_one_rank_runs_the_same_loops(backend, move):
    sim = FemPicSimulation(FemPicConfig.smoke().scaled(
        backend=backend, move_strategy=move))
    sim.run()
    calls = {name: st.calls for name, st in sim.ctx.perf.loops.items()}
    assert calls == RECORDED["fempic_loop_calls"]


def test_one_rank_handles_are_the_app_handles():
    sim = FemPicSimulation(FemPicConfig.smoke())
    assert sim.parts is sim.ranks[0].parts
    assert sim.ctx is sim.ranks[0].ctx
    assert sim.rng is sim.rngs[0]


def test_multi_rank_handles_are_per_rank():
    sim = TwoDSheetModel(TwoDConfig(nx=4, ny=4, ppc=2, n_steps=0),
                         nranks=2)
    with pytest.raises(AttributeError, match="per rank"):
        sim.parts
    with pytest.raises(AttributeError):
        sim.not_a_handle
