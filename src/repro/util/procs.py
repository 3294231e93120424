"""The one worker-process substrate: spawn, framed pipes, death on EOF,
reap.

Every process this package starts — the ``mp`` backend's pool workers,
the ``proc`` transport's rank processes and the service's warm-pool
workers — is launched by :func:`spawn` and talks to its parent over one
duplex pipe carrying length-prefixed frames.

Wire format: each message is one frame —

=======  ======================================================
header   ``!4sBBiiiq`` = magic ``OPPC``, version, kind, src,
         dst, tag, body length (:data:`HEADER_SIZE` bytes)
body     ``N`` + dtype/shape + raw bytes for numpy payloads,
         ``P`` + pickle for control payloads
=======  ======================================================

Kind ranges are disjoint per user so frames can never be confused:
rank frames 0-31 (:mod:`repro.dist.proc`), service frames 32-63
(:mod:`repro.service.pool`), mp pool frames 64+
(:mod:`repro.backends.mp`).

**Death is EOF, in both directions.**  :func:`spawn` creates the pipe,
starts the child and closes the child's end in the parent, strictly one
child at a time.  In the child it first closes every parent-side end
this process holds and the pipe this process was itself launched with,
so each pipe end lives in exactly one process at any nesting depth (an
``mp`` pool inside a rank process included).  A parent reading
:func:`recv_frame` gets ``None`` the moment its child dies; a child
blocked on its parent gets ``None`` the moment the parent dies or
closes the pipe.  A spawned child reaps what it spawned before it
exits, and at interpreter exit the parent closes its pipe ends so its
children wind down instead of blocking the exit.

This module imports only the standard library and NumPy, so every layer
(backends included) can use it without an import cycle.
"""
from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import pickle
import struct
import sys
import time
import traceback
import weakref
from typing import Optional, Tuple

import numpy as np

__all__ = ["RankFailure", "FrameError", "encode_frame", "decode_frame",
           "recv_frame", "spawn", "reap_procs", "HEADER_SIZE",
           "DEFAULT_MAX_FRAME"]

_MAGIC = b"OPPC"
_VERSION = 1
_HEADER = struct.Struct("!4sBBiiiq")
#: bytes of frame header in front of every body
HEADER_SIZE = _HEADER.size

DEFAULT_MAX_FRAME = 64 * 1024 * 1024

_CTX = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                      else "spawn")

#: pipe ends a child of this process must close: the parent-side end of
#: every child spawned from here, plus the pipe this process was itself
#: launched with (weak, so a dropped connection is not kept open)
_held: "weakref.WeakSet" = weakref.WeakSet()


class RankFailure(RuntimeError):
    """A distributed operation failed in a structured, attributable way.

    Parameters
    ----------
    rank:
        The rank the failure is attributed to (the dead peer, the rank
        whose deadline expired, the sender of the oversized frame).
    kind:
        One of ``"rank-dead"``, ``"timeout"``, ``"oversized-frame"``,
        ``"protocol"``, ``"launch"``.
    detail:
        Human-readable context.
    """

    def __init__(self, rank: int, kind: str, detail: str = ""):
        self.rank = int(rank)
        self.kind = str(kind)
        self.detail = str(detail)
        msg = f"rank {rank}: {kind}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    def __reduce__(self):
        # keep rank/kind across pickling (ERROR frames ship these back)
        return (self.__class__, (self.rank, self.kind, self.detail))


class FrameError(ValueError):
    """A frame violated the wire protocol (bad magic/version/length)."""


# -- frame codec -------------------------------------------------------------------


def _encode_body(obj) -> bytes:
    """Numpy arrays travel as dtype+shape+raw bytes (no pickle on the
    hot path); anything else — control dicts, exceptions — is pickled."""
    if isinstance(obj, np.ndarray):
        shape = obj.shape  # ascontiguousarray promotes 0-d to 1-d
        a = np.ascontiguousarray(obj)
        meta = pickle.dumps((a.dtype.str, shape))
        return b"N" + struct.pack("!I", len(meta)) + meta + a.tobytes()
    return b"P" + pickle.dumps(obj)


def _decode_body(body: bytes):
    if not body:
        raise FrameError("empty frame body")
    if body[:1] == b"N":
        (mlen,) = struct.unpack_from("!I", body, 1)
        dtype_str, shape = pickle.loads(body[5:5 + mlen])
        arr = np.frombuffer(body[5 + mlen:], dtype=np.dtype(dtype_str))
        return arr.reshape(shape).copy()
    if body[:1] == b"P":
        return pickle.loads(body[1:])
    raise FrameError(f"unknown body marker {body[:1]!r}")


def encode_frame(kind: int, src: int, dst: int, tag: int, obj,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME) -> bytes:
    """One wire frame; a body over ``max_frame_bytes`` raises
    ``RankFailure(src, "oversized-frame")`` before any bytes move."""
    body = _encode_body(obj)
    if len(body) > max_frame_bytes:
        raise RankFailure(src, "oversized-frame",
                          f"{len(body)} bytes > limit {max_frame_bytes}")
    return _HEADER.pack(_MAGIC, _VERSION, kind, src, dst, tag,
                        len(body)) + body


def decode_frame(blob: bytes) -> Tuple[int, int, int, int, object]:
    """Returns ``(kind, src, dst, tag, payload)``."""
    if len(blob) < HEADER_SIZE:
        raise FrameError(f"short frame: {len(blob)} bytes")
    magic, version, kind, src, dst, tag, blen = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise FrameError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise FrameError(f"protocol version {version}, expected "
                         f"{_VERSION}")
    body = blob[HEADER_SIZE:]
    if len(body) != blen:
        raise FrameError(f"length mismatch: header says {blen}, got "
                         f"{len(body)}")
    return kind, src, dst, tag, _decode_body(body)


def recv_frame(conn, max_frame_bytes: int = DEFAULT_MAX_FRAME
               ) -> Optional[Tuple[int, int, int, int, object]]:
    """Block for the next frame as ``(kind, src, dst, tag, payload)``;
    ``None`` once the peer process is dead or closed its end (EOF, or a
    reset when it left unread frames behind).  A frame over the limit
    raises ``OSError``."""
    try:
        blob = conn.recv_bytes(maxlength=max_frame_bytes + HEADER_SIZE
                               + 64)
    except (EOFError, ConnectionResetError):
        return None
    return decode_frame(blob)


# -- processes ---------------------------------------------------------------------


def spawn(target, args: tuple = (), name: Optional[str] = None):
    """Start ``target(conn, *args)`` in a child process.

    Returns ``(process, conn)``: the :class:`multiprocessing.Process`
    (reap it with :func:`reap_procs`) and this side of the duplex pipe
    whose other end is the child's ``conn``.  The child exits with
    status 0 when ``target`` returns, 1 when it raises (quietly when the
    parent's end of the pipe is gone).
    """
    parent_end, child_end = _CTX.Pipe(duplex=True)
    _held.add(parent_end)     # the child closes it with the rest
    proc = _CTX.Process(target=_child_main,
                        args=(target, child_end, tuple(args)), name=name)
    proc.start()
    child_end.close()
    return proc, parent_end


def _close_held() -> None:
    for conn in list(_held):
        conn.close()
    _held.clear()


atexit.register(_close_held)


def _child_main(target, conn, args: tuple) -> None:
    # pipe ends inherited through fork belong to the parent (its other
    # children, its own launch pipe): drop them so each end lives in one
    # process and a death reads as EOF on the other side
    _close_held()
    _held.add(conn)
    code = 0
    try:
        target(conn, *args)
    except (BrokenPipeError, ConnectionResetError):
        code = 1            # the parent is gone: nobody left to tell
    except BaseException:  # noqa: BLE001 - the exit status reports it
        traceback.print_exc()
        code = 1
    _close_held()
    reap_procs(mp.active_children())
    _stop_resource_tracker()
    os._exit(code)


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker this process launched (a
    rank running the ``mp`` backend starts one); otherwise it outlives
    the process as an orphan.  Runs only on the way out, after the
    process's own children are reaped."""
    resource_tracker = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_fd", None) is None:
        return
    try:
        tracker._stop()
    except (ChildProcessError, TypeError, AttributeError):
        pass  # inherited from an ancestor: not ours to wait for


def reap_procs(procs, join_timeout: float = 5.0) -> None:
    """Deterministically reap child processes.

    Join every process against one shared deadline, escalate stragglers
    through ``terminate`` then ``kill``, and finally ``close`` each
    :class:`multiprocessing.Process` so its OS resources (the process
    object's sentinel fd and zombie entry) are released immediately
    instead of at garbage-collection time.
    """
    deadline = time.monotonic() + join_timeout
    for p in procs:
        p.join(timeout=max(0.1, deadline - time.monotonic()))
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(timeout=2.0)
        if p.is_alive():  # pragma: no cover - last resort
            p.kill()
            p.join(timeout=2.0)
        p.close()
