"""Distributed Mini-FEM-PIC must reproduce the single-rank run exactly
(same injection stream, same physics) for any rank count or partitioner."""
import numpy as np
import pytest

from repro.apps.fempic import FemPicConfig, FemPicSimulation

CFG = FemPicConfig.smoke().scaled(n_steps=8, dt=0.2)


@pytest.fixture(scope="module")
def single():
    sim = FemPicSimulation(CFG)
    sim.run()
    return sim


@pytest.mark.parametrize("nranks", [1, 2, 3, 4])
def test_matches_single_rank(single, nranks):
    dist = FemPicSimulation(CFG, nranks=nranks)
    dist.run()
    np.testing.assert_allclose(dist.history["field_energy"],
                               single.history["field_energy"], rtol=1e-10)
    assert dist.history["n_particles"] == single.history["n_particles"]
    assert sum(dist.history["removed"]) == sum(single.history["removed"])


def test_dh_distributed_matches(single):
    dist = FemPicSimulation(CFG.scaled(move_strategy="dh"), nranks=3)
    dist.run()
    np.testing.assert_allclose(dist.history["field_energy"],
                               single.history["field_energy"], rtol=1e-10)


@pytest.mark.parametrize("method", ["rcb", "graph", "block"])
def test_partitioner_robustness(single, method):
    """Any partitioner must yield a healthy run.  When inlet faces spread
    over several ranks the per-rank injection streams (and rounding
    carries) differ from the single-rank run, so only statistical
    agreement is required."""
    dist = FemPicSimulation(CFG, nranks=2, partition_method=method)
    dist.run()
    n_single = single.history["n_particles"][-1]
    n_dist = dist.history["n_particles"][-1]
    assert abs(n_dist - n_single) <= 2 * CFG.n_steps
    e = np.array(dist.history["field_energy"])
    assert np.isfinite(e).all() and (e > 0).all()
    for rk in dist.ranks:
        live = rk.p2c.p2c[: rk.parts.size]
        assert (live >= 0).all()
        assert (live < rk.rm.n_owned_cells).all()


def test_all_live_particles_in_owned_cells():
    dist = FemPicSimulation(CFG, nranks=3)
    dist.run()
    for rk in dist.ranks:
        live = rk.p2c.p2c[: rk.parts.size]
        assert (live >= 0).all()
        assert (live < rk.rm.n_owned_cells).all()


def test_comm_traffic_recorded():
    dist = FemPicSimulation(CFG, nranks=2)
    dist.run()
    assert dist.comm.stats.total_messages > 0
    assert dist.comm.stats.total_bytes > 0
    assert dist.comm.stats.collectives > 0


def test_busy_seconds_per_rank_reported():
    dist = FemPicSimulation(CFG, nranks=2)
    dist.run()
    busy = dist.busy_seconds_per_rank()
    assert len(busy) == 2
    assert all(b > 0 for b in busy)


def _assert_histories_match(a: dict, b: dict):
    assert a.keys() == b.keys()
    for key in a:
        np.testing.assert_allclose(a[key], b[key], rtol=1e-10, err_msg=key)


@pytest.fixture
def other_duct(tmp_path):
    from repro.mesh import duct_mesh
    from repro.mesh.io import save_mesh
    return str(save_mesh(duct_mesh(2, 2, 8, 1.0, 1.0, 4.0),
                         tmp_path / "duct8.npz"))


@pytest.mark.parametrize("field", ["injection_temperature", "mesh_file",
                                   "program"])
def test_config_field_acts_the_same_at_two_ranks(single, field,
                                                 other_duct):
    """Every config field the 1-rank run honours changes the 2-rank
    trajectory the same way."""
    value = {"injection_temperature": 0.5, "mesh_file": other_duct,
             "program": "fuse"}[field]
    cfg = CFG.scaled(**{field: value})
    one = FemPicSimulation(cfg)
    one.run()
    two = FemPicSimulation(cfg, nranks=2)
    two.run()
    _assert_histories_match(two.history, one.history)
    if field == "program":
        assert two.program is not None and two.program.n_flushes > 0
    else:
        assert one.history != single.history
    if field == "mesh_file":
        assert two.mesh.n_cells == 6 * 2 * 2 * 8


def test_collisions_refuse_several_ranks():
    """MCC draws follow the rank-local particle order, so they cannot
    act the same at N ranks: the field is refused by name."""
    with pytest.raises(ValueError, match="collision_frequency"):
        FemPicSimulation(CFG.scaled(collision_frequency=5.0), nranks=2)
