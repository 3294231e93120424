"""Real OS rank processes over ``multiprocessing.connection``.

Topology: a parent-process **router** holds one duplex pipe per rank.
Rank processes never talk to each other directly — every frame goes
through the router, which forwards point-to-point traffic, completes
collectives (reducing contributions in rank order, so floating-point
results match :class:`~repro.runtime.comm.SimComm` bitwise), and turns a
dying rank into ``RANK_DOWN`` broadcasts instead of a silent hang.

Frames use the codec of :mod:`repro.util.procs` (kinds 0-31), and
rank processes are launched by its :func:`~repro.util.procs.spawn`, so a
rank that dies — even one running an ``mp`` worker pool — is an EOF on
the router's end of its pipe.

Fault model (every path ends in a structured
:class:`~repro.dist.transport.RankFailure`, never a deadlock):

* peer process exits before completing → router broadcasts
  ``RANK_DOWN``; blocked ``recv``/collectives raise ``rank-dead``;
* no frame within ``op_timeout`` seconds → ``timeout``;
* frame body over ``max_frame_bytes`` → ``oversized-frame``, enforced
  on the sender before any bytes move and again by the router.

The router writes to children from dedicated writer threads with
unbounded queues, so its read loop never blocks on a full pipe — the
cyclic-buffer deadlock (child blocked sending while router blocked
sending to it) cannot form.
"""
from __future__ import annotations

import queue
import threading
import time
import traceback
from collections import deque
from typing import Dict, List, Sequence, Tuple

from multiprocessing import connection as mpc

import numpy as np

from ..runtime.comm import SimComm
from ..util.procs import (DEFAULT_MAX_FRAME, HEADER_SIZE, FrameError,
                          RankFailure, decode_frame, encode_frame,
                          recv_frame, reap_procs, spawn)

__all__ = ["ProcTransport", "ProcCluster", "DEFAULT_OP_TIMEOUT"]

# frame kinds
K_HELLO = 0        # child -> router: rank is up
K_P2P = 1          # payload for another rank (forwarded verbatim)
K_COLL = 2         # child -> router: collective contribution
K_COLL_RESULT = 3  # router -> child: completed collective
K_RESULT = 4       # child -> router: rank finished, body = result
K_ERROR = 5        # child -> router: rank raised, body = exception
K_RANK_DOWN = 6    # router -> child: src rank died / was expelled

DEFAULT_OP_TIMEOUT = 30.0


# -- the SPMD transport ------------------------------------------------------------


class ProcTransport(SimComm):
    """One rank process's view of the communicator.

    Inherits the accounting surface (:attr:`stats`, :meth:`swap_stats`)
    from :class:`SimComm` and replaces locality, point-to-point and
    collectives with wire operations through the router connection.
    Every blocking wait honours :attr:`op_timeout`.
    """

    def __init__(self, nranks: int, my_rank: int, conn,
                 op_timeout: float = DEFAULT_OP_TIMEOUT,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME):
        super().__init__(nranks)
        if not 0 <= my_rank < nranks:
            raise ValueError(f"rank {my_rank} out of range")
        self.my_rank = my_rank
        self.op_timeout = float(op_timeout)
        self.max_frame_bytes = int(max_frame_bytes)
        self._conn = conn
        #: buffered out-of-order P2P frames: (src, tag) -> deque
        self._p2p: Dict[Tuple[int, int], deque] = {}
        self._coll_results: deque = deque()
        self._dead: Dict[int, str] = {}
        self._send_raw(K_HELLO, self.my_rank, -1, 0, None)

    # -- locality ------------------------------------------------------------------

    @property
    def local_ranks(self) -> Tuple[int, ...]:
        return (self.my_rank,)

    def is_local(self, rank: int) -> bool:
        return rank == self.my_rank

    # -- wire plumbing -------------------------------------------------------------

    def _send_raw(self, kind: int, src: int, dst: int, tag: int,
                  obj) -> None:
        blob = encode_frame(kind, src, dst, tag, obj,
                            self.max_frame_bytes)
        try:
            self._conn.send_bytes(blob)
        except (BrokenPipeError, OSError) as exc:
            raise RankFailure(self.my_rank, "rank-dead",
                              f"router connection lost: {exc}") from exc

    def _pump_one(self, deadline: float, waiting_for: str) -> None:
        """Receive and file exactly one frame, or raise on deadline."""
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not self._conn.poll(remaining):
            raise RankFailure(self.my_rank, "timeout",
                              f"no frame within {self.op_timeout:.1f}s "
                              f"while waiting for {waiting_for}")
        try:
            frame = recv_frame(self._conn, self.max_frame_bytes)
        except OSError as exc:
            raise RankFailure(self.my_rank, "oversized-frame",
                              f"incoming frame over "
                              f"{self.max_frame_bytes} bytes") from exc
        if frame is None:
            raise RankFailure(self.my_rank, "rank-dead",
                              "router closed the connection")
        kind, src, dst, tag, payload = frame
        if kind == K_P2P:
            self._p2p.setdefault((src, tag), deque()).append(payload)
        elif kind == K_COLL_RESULT:
            self._coll_results.append(payload)
        elif kind == K_RANK_DOWN:
            self._dead[src] = str(payload)
        else:
            raise RankFailure(self.my_rank, "protocol",
                              f"unexpected frame kind {kind}")

    # -- point-to-point ------------------------------------------------------------

    def send(self, src: int, dst: int, payload: np.ndarray,
             tag: int = 0) -> None:
        self._check_rank(src)
        self._check_rank(dst)
        if src != self.my_rank:
            raise RankFailure(self.my_rank, "protocol",
                              f"rank {self.my_rank} cannot send as "
                              f"rank {src}")
        if dst in self._dead:
            raise RankFailure(dst, "rank-dead", self._dead[dst])
        payload = np.ascontiguousarray(payload)
        self._send_raw(K_P2P, src, dst, tag, payload)
        self.stats.record(src, dst, payload.nbytes)

    def recv(self, dst: int, src: int, tag: int = 0) -> np.ndarray:
        self._check_rank(src)
        self._check_rank(dst)
        if dst != self.my_rank:
            raise RankFailure(self.my_rank, "protocol",
                              f"rank {self.my_rank} cannot recv as "
                              f"rank {dst}")
        key = (src, tag)
        deadline = time.monotonic() + self.op_timeout
        while True:
            q = self._p2p.get(key)
            if q:
                return q.popleft()
            if src in self._dead:
                raise RankFailure(src, "rank-dead", self._dead[src])
            self._pump_one(deadline,
                           f"message from rank {src} tag {tag}")

    # -- collectives ---------------------------------------------------------------

    def _collective(self, request: dict):
        self._send_raw(K_COLL, self.my_rank, -1, 0, request)
        deadline = time.monotonic() + self.op_timeout
        while not self._coll_results:
            if self._dead:
                r, why = next(iter(self._dead.items()))
                raise RankFailure(r, "rank-dead",
                                  f"peer died inside a collective: "
                                  f"{why}")
            self._pump_one(deadline,
                           f"collective {request.get('op')}")
        return self._coll_results.popleft()

    def allreduce(self, per_rank_values: Sequence, op: str = "sum"):
        if len(per_rank_values) != self.nranks:
            raise ValueError(f"allreduce needs {self.nranks} values, "
                             f"got {len(per_rank_values)}")
        self.stats.collectives += 1
        value = np.asarray(per_rank_values[self.my_rank])
        return self._collective({"op": "allreduce", "reduce": op,
                                 "value": value})

    def alltoall_counts(self, counts: np.ndarray) -> np.ndarray:
        counts = np.asarray(counts)
        if counts.shape != (self.nranks, self.nranks):
            raise ValueError("counts must be (nranks, nranks)")
        self.stats.collectives += 1
        return self._collective({"op": "alltoall",
                                 "row": counts[self.my_rank].copy()})

    def barrier(self) -> None:
        self.stats.collectives += 1
        self._collective({"op": "barrier"})

    def __repr__(self) -> str:
        return (f"<ProcTransport rank={self.my_rank}/"
                f"{self.nranks}>")


# -- rank-process entry ------------------------------------------------------------


def _rank_main(conn, entry, rank: int, nranks: int, opts: dict,
               args: tuple) -> None:
    """Body of every rank process: build the transport, run ``entry``,
    ship the result (or the exception) back."""
    try:
        transport = ProcTransport(nranks, rank, conn, **opts)
        payload = entry(transport, *args)
        conn.send_bytes(encode_frame(K_RESULT, rank, -1, 0, payload,
                                     transport.max_frame_bytes))
    except BaseException as exc:  # noqa: BLE001 - shipped to the router
        if not isinstance(exc, RankFailure):
            # the pickled exception loses its traceback; keep it on the
            # inherited stderr for post-mortems
            traceback.print_exc()
        try:
            conn.send_bytes(encode_frame(K_ERROR, rank, -1, 0, exc))
        except Exception:
            pass


# -- the router / cluster ----------------------------------------------------------


class _Writer:
    """Per-child writer thread so the router's read loop never blocks on
    a full pipe (see module docstring)."""

    def __init__(self, conn):
        self._conn = conn
        self._q: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            blob = self._q.get()
            if blob is None:
                return
            try:
                self._conn.send_bytes(blob)
            except (BrokenPipeError, OSError):
                pass  # receiver died; the read loop will notice the EOF

    def post(self, blob: bytes) -> None:
        self._q.put(blob)

    def stop(self) -> None:
        self._q.put(None)
        self._thread.join(timeout=5.0)


class ProcCluster:
    """Launches ``nranks`` rank processes and routes frames between
    them until every rank returned a result or failed.

    ``entry(transport, *args)`` runs inside each rank process; its
    return value (any picklable object) becomes that rank's slot in the
    list :meth:`run` returns.
    """

    def __init__(self, nranks: int, entry, args: tuple = (),
                 op_timeout: float = DEFAULT_OP_TIMEOUT,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME):
        if nranks < 1:
            raise ValueError("need at least one rank")
        self.nranks = int(nranks)
        self.entry = entry
        self.args = tuple(args)
        self.op_timeout = float(op_timeout)
        self.max_frame_bytes = int(max_frame_bytes)

    def run(self) -> List[object]:
        """Launch, route, reap.  Returns per-rank results; raises the
        root-cause :class:`RankFailure` if any rank failed."""
        opts = {"op_timeout": self.op_timeout,
                "max_frame_bytes": self.max_frame_bytes}
        procs, conns = [], []
        try:
            for r in range(self.nranks):
                proc, conn = spawn(_rank_main,
                                   (self.entry, r, self.nranks, opts,
                                    self.args), name=f"rank-{r}")
                procs.append(proc)
                conns.append(conn)
            results, errors = self._route(conns)
        finally:
            for conn in conns:
                conn.close()
            reap_procs(procs)
        if errors:
            # prefer the root cause: a dead/expelled rank over the
            # secondary failures its peers raised when they noticed
            for rank, exc in sorted(errors.items()):
                if isinstance(exc, RankFailure) \
                        and exc.kind in ("rank-dead", "oversized-frame") \
                        and exc.rank == rank:
                    raise exc
            rank, exc = sorted(errors.items())[0]
            if isinstance(exc, RankFailure):
                raise exc
            raise RankFailure(rank, "rank-dead",
                              f"rank raised {exc!r}") from exc
        return [results[r] for r in range(self.nranks)]

    # -- router --------------------------------------------------------------------

    def _route(self, conns) -> Tuple[Dict[int, object],
                                     Dict[int, Exception]]:
        nranks = self.nranks
        rank_of = {id(c): r for r, c in enumerate(conns)}
        writers = {r: _Writer(c) for r, c in enumerate(conns)}
        results: Dict[int, object] = {}
        errors: Dict[int, Exception] = {}
        coll_pending: Dict[int, deque] = {r: deque()
                                          for r in range(nranks)}
        alive = set(range(nranks))
        open_ranks = set(range(nranks))
        try:
            while open_ranks - set(results) - set(errors):
                ready = mpc.wait([conns[r] for r in open_ranks],
                                 timeout=self.op_timeout)
                if not ready:
                    stuck = sorted(open_ranks - set(results)
                                   - set(errors))
                    raise RankFailure(
                        stuck[0], "timeout",
                        f"router saw no traffic for "
                        f"{self.op_timeout:.1f}s; ranks {stuck} never "
                        f"completed")
                for conn in ready:
                    r = rank_of[id(conn)]
                    try:
                        blob = conn.recv_bytes(
                            maxlength=self.max_frame_bytes
                            + HEADER_SIZE + 64)
                    except (EOFError, ConnectionResetError):
                        open_ranks.discard(r)
                        if r not in results and r not in errors:
                            self._expel(r, "process exited without a "
                                        "result", alive, writers,
                                        errors)
                        else:
                            alive.discard(r)
                        continue
                    except OSError:
                        open_ranks.discard(r)
                        self._expel(r, "sent a frame over the size "
                                    "limit", alive, writers, errors,
                                    kind="oversized-frame")
                        continue
                    self._dispatch(r, blob, alive, open_ranks, writers,
                                   results, errors, coll_pending)
                self._complete_collectives(alive, results, errors,
                                           coll_pending, writers)
        finally:
            for w in writers.values():
                w.stop()
        return results, errors

    def _dispatch(self, r: int, blob: bytes, alive, open_ranks,
                  writers, results, errors, coll_pending) -> None:
        try:
            kind, src, dst, tag, payload = decode_frame(blob)
        except FrameError as exc:
            open_ranks.discard(r)
            self._expel(r, f"protocol violation: {exc}", alive,
                        writers, errors, kind="protocol")
            return
        if kind == K_HELLO:
            return
        if kind == K_P2P:
            if dst in alive:
                writers[dst].post(blob)
            return
        if kind == K_COLL:
            coll_pending[r].append(payload)
            return
        if kind == K_RESULT:
            results[r] = payload
            return
        if kind == K_ERROR:
            exc = payload if isinstance(payload, BaseException) \
                else RankFailure(r, "rank-dead", repr(payload))
            errors[r] = exc
            alive.discard(r)
            # fail the peers fast instead of letting them run into
            # their own timeouts one by one
            down = encode_frame(K_RANK_DOWN, r, -1, 0,
                                f"rank failed: {exc}")
            for peer, w in writers.items():
                if peer != r and peer in alive:
                    w.post(down)
            return
        open_ranks.discard(r)
        self._expel(r, f"unexpected frame kind {kind}", alive, writers,
                    errors, kind="protocol")

    def _expel(self, r: int, why: str, alive, writers, errors,
               kind: str = "rank-dead") -> None:
        """Mark a rank failed and tell every survivor so nobody blocks
        forever waiting for it."""
        if r in errors:
            return
        alive.discard(r)
        errors[r] = RankFailure(r, kind, why)
        down = encode_frame(K_RANK_DOWN, r, -1, 0, why)
        for peer, w in writers.items():
            if peer != r and peer in alive:
                w.post(down)

    def _complete_collectives(self, alive, results, errors,
                              coll_pending, writers) -> None:
        """Pop one pending contribution per participating rank whenever
        everyone has posted, reduce in rank order, broadcast."""
        while True:
            participants = sorted(r for r in alive if r not in results)
            if not participants or \
                    any(not coll_pending[r] for r in participants):
                return
            reqs = {r: coll_pending[r].popleft() for r in participants}
            ops = {req["op"] for req in reqs.values()}
            if len(ops) > 1:
                for r in participants:
                    self._expel(r, f"mismatched collectives {ops}",
                                alive, writers, errors,
                                kind="protocol")
                return
            op = ops.pop()
            if op == "allreduce":
                red = {req["reduce"] for req in reqs.values()}.pop()
                vals = [np.asarray(reqs[r]["value"])
                        for r in participants]
                if red == "sum":
                    out = sum(vals[1:], vals[0].copy())
                elif red == "max":
                    out = vals[0].copy()
                    for a in vals[1:]:
                        out = np.maximum(out, a)
                elif red == "min":
                    out = vals[0].copy()
                    for a in vals[1:]:
                        out = np.minimum(out, a)
                else:
                    raise RankFailure(participants[0], "protocol",
                                      f"unknown reduce {red!r}")
                out = np.asarray(out)
            elif op == "alltoall":
                counts = np.zeros((self.nranks, self.nranks),
                                  dtype=np.int64)
                for r in participants:
                    counts[r] = np.asarray(reqs[r]["row"])
                out = counts.T.copy()
            elif op == "barrier":
                out = np.zeros(0)
            else:
                raise RankFailure(participants[0], "protocol",
                                  f"unknown collective {op!r}")
            blob = encode_frame(K_COLL_RESULT, -1, -1, 0, out,
                                self.max_frame_bytes)
            for r in participants:
                writers[r].post(blob)
