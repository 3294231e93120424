"""Regression tests for deterministic process reaping (util.procs).

``ProcCluster``, the service warm pool and the mp worker pool all spawn
and reap through :mod:`repro.util.procs` and must never leak processes:
after ``reap_procs`` returns, every process — prompt exiter, straggler,
or outright hang — is joined, terminated if necessary, and its
``multiprocessing.Process`` handle closed, so no zombies or sentinel fds
survive pool recycling.
"""
import multiprocessing as mp
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.apps.fempic import FemPicConfig
from repro.dist.driver import run_distributed
from repro.dist.proc import ProcCluster
from repro.dist.transport import RankFailure
from repro.util.procs import reap_procs

_CTX = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                      else "spawn")


def _exit_fast():
    pass


def _hang_forever():
    time.sleep(3600)


def _assert_closed(proc):
    """A closed Process handle raises on any liveness query."""
    with pytest.raises(ValueError):
        proc.is_alive()


def test_reap_joins_prompt_exiters_and_closes_handles():
    procs = [_CTX.Process(target=_exit_fast) for _ in range(3)]
    for p in procs:
        p.start()
    reap_procs(procs, join_timeout=10.0)
    for p in procs:
        _assert_closed(p)


def test_reap_terminates_hung_process_within_deadline():
    hung = _CTX.Process(target=_hang_forever)
    ok = _CTX.Process(target=_exit_fast)
    hung.start()
    ok.start()
    t0 = time.monotonic()
    reap_procs([hung, ok], join_timeout=0.5)
    elapsed = time.monotonic() - t0
    # the deadline is shared, not per-process: well under timeout+term
    assert elapsed < 10.0
    _assert_closed(hung)
    _assert_closed(ok)


def test_reap_tolerates_already_joined_processes():
    p = _CTX.Process(target=_exit_fast)
    p.start()
    p.join()
    reap_procs([p], join_timeout=1.0)
    _assert_closed(p)


def _rank_entry(transport):
    return transport.my_rank


def test_proc_cluster_leaves_no_children_behind():
    before = len(mp.active_children())
    result = ProcCluster(2, _rank_entry).run()
    assert result == [0, 1]
    # reap happened inside run(): no lingering rank processes
    assert len(mp.active_children()) <= before


# -- nested substrates: proc ranks running the mp backend ----------------------

ROOT = Path(__file__).resolve().parents[2]


def _session_processes(sid: int) -> list:
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
def test_mp_ranks_leave_no_process_behind():
    """Every rank reaps its mp workers and their resource tracker
    before it exits, so nothing outlives the launcher."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "fempic", "--ranks", "2",
         "--transport", "proc", "--backend", "mp", "--nworkers", "2",
         "--steps", "2", "--quiet"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, start_new_session=True)
    assert proc.wait(timeout=300) == 0
    assert _session_processes(proc.pid) == []


def test_hard_exit_of_an_mp_rank_is_rank_dead():
    """The workers of a rank that hard-exits do not hold its pipe open:
    the router reads EOF and reports ``rank-dead`` well inside
    ``op_timeout`` instead of timing out."""
    cfg = FemPicConfig.smoke().scaled(
        n_steps=4, backend="mp",
        backend_options={"nworkers": 2, "min_chunk": 1})
    op_timeout = 20.0
    t0 = time.monotonic()
    with pytest.raises(RankFailure) as exc_info:
        run_distributed("fempic", cfg, nranks=2, transport="proc",
                        op_timeout=op_timeout, kill=(1, 2))
    assert exc_info.value.kind == "rank-dead"
    assert time.monotonic() - t0 < op_timeout / 2
