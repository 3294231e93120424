"""The distributed-op conformance harness: deterministic generation,
clean sweeps over both transports, and — the point of the exercise —
catching and shrinking an injected distribution bug."""
import numpy as np
import pytest

import repro.verify.dist_conformance as dc
from repro.verify.conformance import shrink_case
from repro.verify.dist_conformance import (DIST_OP_NAMES, DistCase,
                                           DistConformanceFailure,
                                           generate_dist_case,
                                           run_dist_case,
                                           run_dist_conformance)


def test_generation_is_deterministic():
    a, b = generate_dist_case(42), generate_dist_case(42)
    assert a.to_dict() == b.to_dict()
    assert a.nranks in (2, 3)
    assert a.n_cells >= 2 * a.nranks
    assert set(a.program) <= set(DIST_OP_NAMES)
    assert generate_dist_case(43).to_dict() != a.to_dict()


def test_case_replace_and_signature():
    case = generate_dist_case(7)
    smaller = case.replace(n_parts=4)
    assert smaller.n_parts == 4 and smaller.seed == case.seed
    assert f"seed={case.seed}" in case.signature()
    assert "ranks=" in case.signature()


def test_every_op_conforms_individually():
    """Each catalog op alone must agree with the 1-rank oracle."""
    for op in DIST_OP_NAMES:
        case = DistCase(seed=5, n_cells=9, n_nodes=6, arity=3,
                        n_parts=30, nranks=3, program=(op,))
        expected = run_dist_case(case.replace(nranks=1), "sim")
        got = run_dist_case(case, "sim")
        mismatches = dc.compare_states(expected, got)
        assert not mismatches, f"op {op!r}: {mismatches}"


def test_sweep_passes_over_sim():
    res = run_dist_conformance(n_cases=10, seed=0, transport="sim")
    assert res["executions"] == 10
    assert res["transport"] == "sim"


def test_sweep_passes_over_proc():
    res = run_dist_conformance(n_cases=2, seed=3, transport="proc")
    assert res["executions"] == 2


def test_assembled_state_has_global_shapes():
    case = DistCase(seed=11, n_cells=8, n_nodes=5, arity=2, n_parts=16,
                    nranks=2, program=("deposit_nodes", "gbl_reduce"))
    state = run_dist_case(case, "sim")
    assert state["cell_acc"].shape == (8, 1)
    assert state["node_a"].shape == (5, 2)
    assert state["g_sum_hist"].shape == (1,)
    # no particle moved, so everyone survives with their global ids
    np.testing.assert_array_equal(state["pid"], np.arange(16))


def test_injected_distribution_bug_is_caught_and_shrunk(monkeypatch):
    """A bug that only manifests on >1 rank (a lost ghost contribution)
    must be detected, attributed, shrunk, and reported with a repro
    command."""
    real = dc.DIST_OPS["cell_neighbor_inc"]

    def buggy(world):
        real(world)
        ranks = world["ranks"]
        if world["comm"].nranks > 1 and ranks[1] is not None:
            ranks[1].cell_acc.data[0, 0] += 1.0  # corrupt one owner row

    monkeypatch.setitem(dc.DIST_OPS, "cell_neighbor_inc", buggy)
    with pytest.raises(DistConformanceFailure) as exc_info:
        run_dist_conformance(n_cases=5, seed=0, transport="sim")
    failure = exc_info.value
    assert "cell_neighbor_inc" in failure.shrunk.program
    assert len(failure.shrunk.program) == 1
    assert failure.mismatches
    msg = str(failure)
    assert "--dist-conformance" in msg
    assert f"--seed {failure.case.seed}" in msg
    assert "minimal case" in msg


def test_unknown_transport_rejected():
    case = generate_dist_case(1)
    with pytest.raises(ValueError, match="transport"):
        run_dist_case(case, "tcp")


def test_shared_shrinker_minimises_a_dist_case_without_ranks():
    """DistCase supplies its own candidates to the one greedy shrinker;
    a synthetic judgement needs no rank at all."""
    def fails(case):
        return ["move ran"] if "move" in case.program else []

    case = generate_dist_case(2)
    assert "move" in case.program and len(case.program) > 1
    assert case.nranks == 3
    shrunk, mismatches = shrink_case(case, fails=fails)
    assert mismatches == ["move ran"]
    assert shrunk.to_dict() == DistCase(
        seed=2, n_cells=4, n_nodes=4, arity=2, n_parts=4, nranks=2,
        program=("move",)).to_dict()
