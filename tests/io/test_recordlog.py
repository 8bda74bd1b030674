"""The append-only record log under campaign checkpoints."""

import numpy as np
import pytest

from repro.io.recordlog import RecordLog, read_records


def test_records_round_trip_bit_exactly(tmp_path):
    path = tmp_path / "x.log"
    log = RecordLog(path)
    arrays = {
        "f": np.array([0.0, -0.0, np.nan, np.inf, 1e-310]),
        "grid": np.arange(6, dtype=np.uint8).reshape(2, 3),
        "scalar": np.asarray(np.int64(-7)),
        "empty": np.empty(0, dtype=np.int32),
        "strided": np.arange(10.0)[::3],
    }
    sizes = [log.append({"chunk": i, "note": "é"}, **arrays)
             for i in range(2)]
    records = read_records(path)
    assert [r.meta for r in records] == [{"chunk": 0, "note": "é"},
                                         {"chunk": 1, "note": "é"}]
    assert [r.end for r in records] == [sizes[0], sum(sizes)]
    for record in records:
        assert record.arrays.keys() == arrays.keys()
        for name, expected in arrays.items():
            got = record.arrays[name]
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_missing_log_reads_empty(tmp_path):
    assert read_records(tmp_path / "absent.log") == []


def test_object_arrays_are_refused(tmp_path):
    with pytest.raises(TypeError, match="object"):
        RecordLog(tmp_path / "x.log").append(
            {}, a=np.array([{}], dtype=object))


def test_reading_a_torn_log_leaves_it_alone(tmp_path):
    path = tmp_path / "x.log"
    log = RecordLog(path)
    for i in range(3):
        log.append({"chunk": i}, a=np.arange(100))
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    assert [r.meta["chunk"] for r in read_records(path)] == [0, 1]
    assert path.read_bytes() == data[:-5]
    # A writer cuts the torn record off before its first append.
    RecordLog(path).append({"chunk": 2}, a=np.arange(100))
    assert path.read_bytes() == data
