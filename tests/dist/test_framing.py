"""Wire-protocol unit tests: frame codec, size limits, structured errors."""
import pickle

import numpy as np
import pytest

from repro.dist.proc import K_P2P
from repro.dist.transport import (RankFailure, TRANSPORT_KINDS,
                                  create_transport)
from repro.runtime.comm import SimComm
from repro.util.procs import (DEFAULT_MAX_FRAME, FrameError, decode_frame,
                              encode_frame)


@pytest.mark.parametrize("payload", [
    np.arange(12, dtype=np.float64).reshape(3, 4),
    np.arange(5, dtype=np.int64),
    np.array(7, dtype=np.int64),              # 0-d must survive
    np.empty((0, 3), dtype=np.float64),       # empty must survive
    np.asfortranarray(np.arange(6.0).reshape(2, 3)),
])
def test_ndarray_roundtrip(payload):
    blob = encode_frame(K_P2P, 1, 2, 9, payload)
    kind, src, dst, tag, out = decode_frame(blob)
    assert (kind, src, dst, tag) == (K_P2P, 1, 2, 9)
    assert out.dtype == payload.dtype
    assert out.shape == payload.shape
    np.testing.assert_array_equal(out, payload)


def test_control_object_roundtrip():
    obj = {"op": "allreduce", "reduce": "sum",
           "value": np.array([1.5, 2.5])}
    _k, _s, _d, _t, out = decode_frame(encode_frame(2, 0, -1, 0, obj))
    assert out["op"] == "allreduce" and out["reduce"] == "sum"
    np.testing.assert_array_equal(out["value"], obj["value"])


def test_zero_dim_int_survives_round_trip_as_scalar_convertible():
    # the in-flight count of mpi_particle_move is reduced as a 0-d array
    # and converted with int() — the codec must not promote its shape
    _k, _s, _d, _t, out = decode_frame(
        encode_frame(K_P2P, 0, 1, 0, np.array(3)))
    assert out.shape == ()
    assert int(out) == 3


def test_oversized_frame_raises_structured_failure():
    big = np.zeros(1024, dtype=np.float64)
    with pytest.raises(RankFailure) as exc_info:
        encode_frame(K_P2P, 3, 0, 0, big, max_frame_bytes=1024)
    exc = exc_info.value
    assert exc.kind == "oversized-frame"
    assert exc.rank == 3
    assert "limit" in exc.detail


def test_decode_rejects_bad_magic():
    blob = bytearray(encode_frame(K_P2P, 0, 1, 0, np.zeros(2)))
    blob[:4] = b"XXXX"
    with pytest.raises(FrameError, match="magic"):
        decode_frame(bytes(blob))


def test_decode_rejects_bad_version():
    blob = bytearray(encode_frame(K_P2P, 0, 1, 0, np.zeros(2)))
    blob[4] = 99
    with pytest.raises(FrameError, match="version"):
        decode_frame(bytes(blob))


def test_decode_rejects_truncation_and_length_mismatch():
    blob = encode_frame(K_P2P, 0, 1, 0, np.zeros(4))
    with pytest.raises(FrameError, match="short"):
        decode_frame(blob[:8])
    with pytest.raises(FrameError, match="length"):
        decode_frame(blob[:-3])


def test_rank_failure_pickle_preserves_fields():
    exc = RankFailure(2, "timeout", "no frame within 1.0s")
    clone = pickle.loads(pickle.dumps(exc))
    assert isinstance(clone, RankFailure)
    assert clone.rank == 2
    assert clone.kind == "timeout"
    assert clone.detail == "no frame within 1.0s"
    assert "rank 2" in str(clone)


def test_create_transport():
    assert TRANSPORT_KINDS == ("sim", "proc")
    comm = create_transport("sim", 3)
    assert isinstance(comm, SimComm) and comm.nranks == 3
    with pytest.raises(TypeError):
        create_transport("sim", 2, bogus=1)
    with pytest.raises(ValueError, match="ProcCluster|run_distributed"):
        create_transport("proc", 2)
    with pytest.raises(ValueError, match="unknown transport"):
        create_transport("tcp", 2)


def test_default_frame_limit_is_sane():
    assert DEFAULT_MAX_FRAME >= 16 * 1024 * 1024
