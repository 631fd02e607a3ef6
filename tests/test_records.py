import json

import numpy as np
import pytest

from poisson_sgd.records import RunRecord, canonical_json

from package_helpers import final_theta, read_record


def test_canonical_json_sorted_and_compact():
    s = canonical_json({"b": 1, "a": [1.5, 2]})
    assert s == '{"a":[1.5,2],"b":1}'
    # same content, different insertion order -> same bytes
    assert canonical_json({"a": [1.5, 2], "b": 1}) == s


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_canonical_json_handles_numpy_scalars_and_arrays():
    s = canonical_json({"v": np.float64(0.5), "k": np.int64(3), "a": np.arange(3)})
    assert s == '{"a":[0,1,2],"k":3,"v":0.5}'


def _filled_record(stride=1, n=6):
    rec = RunRecord(kind="poisson_sgd", config={"seed": 1}, stride=stride)
    for k in range(1, n + 1):
        rec.append(
            k,
            np.array([0.1 * k, 0.2 * k]),
            np.array([1.0, 0.0]),
            eta=0.01 * k,
            grad_norm=float(k),
        )
    return rec


def test_record_stride_retention():
    # the chain loop picks the steps to keep; the record keeps every row it
    # is given and writes the stride in its header
    rec = _filled_record(stride=2, n=7)
    assert rec.column("k").tolist() == [1, 2, 3, 4, 5, 6, 7]
    assert rec.header()["stride"] == 2
    with pytest.raises(ValueError, match="stride"):
        RunRecord(kind="poisson_sgd", config={}, stride=0)


def test_record_columns_and_final_theta():
    rec = _filled_record()
    theta = rec.column("theta")
    assert theta.shape == (6, 2)
    assert np.allclose(final_theta(rec), [0.6, 1.2])
    assert np.allclose(rec.column("eta"), 0.01 * np.arange(1, 7))


def test_ndjson_roundtrip(tmp_path):
    rec = _filled_record(stride=2, n=9)
    path = tmp_path / "run.ndjson"
    rec.to_ndjson(path)
    text = path.read_text()
    head = json.loads(text.splitlines()[0])
    assert head["schema"] == "poisson-sgd/run-record/1"
    assert head["kind"] == "poisson_sgd"

    back = read_record(path)
    assert back.kind == rec.kind
    assert back.config == rec.config
    assert np.allclose(back.column("theta"), rec.column("theta"))
    assert back.column("k").tolist() == rec.column("k").tolist()


def test_ndjson_rejects_other_schema(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"schema": "something-else/1"}\n')
    with pytest.raises(ValueError):
        read_record(path)


def test_max_norm_deviation_not_serialized(tmp_path):
    a = _filled_record()
    b = _filled_record()
    a.max_norm_deviation = 1e-16
    b.max_norm_deviation = 5e-12
    pa, pb = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    a.to_ndjson(pa)
    b.to_ndjson(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_csv_output(tmp_path):
    rec = _filled_record(n=3)
    path = tmp_path / "run.csv"
    rec.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[:5] == ["k", "theta_0", "theta_1", "v_0", "v_1"]
    assert len(lines) == 4
    # repr round-trips floats exactly
    row = lines[1].split(",")
    assert float(row[1]) == 0.1
