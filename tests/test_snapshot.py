import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spheroid import SnapshotError, State, load_snapshot, save_snapshot
from spheroid.snapshot import MAGIC


def sample_state():
    rng = np.random.default_rng(3)
    return State(t=1.2345678901234567, z=0.4111111111111111,
                 c=rng.uniform(0, 1, 101), p=rng.uniform(0, 1, 101))


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "a.snap"
    state = sample_state()
    save_snapshot(state, path, step=420, output_index=42, config_hash="cafe")
    loaded, header = load_snapshot(path, expect_n=101)
    assert loaded.t == state.t and loaded.z == state.z
    assert np.array_equal(loaded.c, state.c)
    assert np.array_equal(loaded.p, state.p)
    assert header["step"] == 420
    assert header["output_index"] == 42
    assert header["config_hash"] == "cafe"


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2**32 - 1),
       st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_round_trip_property(tmp_path, seed, t, z):
    # bit-exact for any finite payload, including subnormals and extremes;
    # each example writes its own file, so fixture reuse is harmless
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-300, 300)
    state = State(t=t, z=z, c=rng.uniform(-1, 1, 7) * scale,
                  p=rng.uniform(-1, 1, 7) / scale)
    path = tmp_path / f"prop_{seed}.snap"
    save_snapshot(state, path)
    loaded, _ = load_snapshot(path)
    assert loaded.t == t and loaded.z == z
    assert np.array_equal(loaded.c, state.c)
    assert np.array_equal(loaded.p, state.p)


def test_truncated_file_fails_checksum(tmp_path):
    path = tmp_path / "a.snap"
    save_snapshot(sample_state(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-40])
    with pytest.raises(SnapshotError) as err:
        load_snapshot(path)
    assert "checksum" in str(err.value) or "truncated" in str(err.value)


def test_corrupt_payload_fails_checksum(tmp_path):
    path = tmp_path / "a.snap"
    save_snapshot(sample_state(), path)
    blob = bytearray(path.read_bytes())
    blob[200] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotError) as err:
        load_snapshot(path)
    assert "checksum" in str(err.value)


def test_bad_magic(tmp_path):
    path = tmp_path / "a.snap"
    path.write_bytes(b"NOTASNAP" + b"\x00" * 100)
    with pytest.raises(SnapshotError) as err:
        load_snapshot(path)
    assert "magic" in str(err.value)


def test_grid_mismatch(tmp_path):
    path = tmp_path / "a.snap"
    save_snapshot(sample_state(), path)
    with pytest.raises(SnapshotError) as err:
        load_snapshot(path, expect_n=201)
    assert "n=101" in str(err.value)


HEADER = {"version": 1, "n": 3, "step": 0, "output_index": 0, "t": 0.0,
          "z": 0.0, "config_hash": "", "code_version": "x"}


def write_with_header(path, header, nodes=3):
    """A snapshot of ``nodes`` zero nodes with the given JSON header and a
    valid checksum."""
    head = json.dumps(header).encode()
    body = (MAGIC + len(head).to_bytes(4, "little") + head
            + b"\x00" * (16 * nodes))
    path.write_bytes(body + hashlib.sha256(body).digest())


def test_version_mismatch(tmp_path):
    path = tmp_path / "a.snap"
    write_with_header(path, {**HEADER, "version": 99})
    with pytest.raises(SnapshotError) as err:
        load_snapshot(path)
    assert "version" in str(err.value)


def test_header_not_object_or_incomplete(tmp_path):
    path = tmp_path / "a.snap"
    write_with_header(path, HEADER)
    load_snapshot(path)
    write_with_header(path, list(HEADER))
    with pytest.raises(SnapshotError, match="not a JSON object"):
        load_snapshot(path)
    for key in ("n", "t", "z", "step", "output_index", "config_hash"):
        write_with_header(path, {k: v for k, v in HEADER.items() if k != key})
        with pytest.raises(SnapshotError, match=f"lacks {key}"):
            load_snapshot(path)


@pytest.mark.parametrize("key, value", [
    ("n", 3.9), ("n", "3"), ("n", 0), ("n", -3), ("n", True), ("n", None),
    ("step", "x"), ("step", -1), ("step", 1.0),
    ("output_index", -1), ("output_index", "0"),
    ("t", "soon"), ("t", None), ("t", float("inf")), ("t", False),
    pytest.param("t", 10**400, id="t-10**400"),
    ("z", None), ("z", float("nan")), ("z", "0.4"),
    ("config_hash", None), ("config_hash", 7),
])
def test_header_field_of_wrong_type(tmp_path, key, value):
    # each field must be of its JSON type, whatever the checksum says;
    # integral numbers pass as t and z
    path = tmp_path / "a.snap"
    write_with_header(path, {**HEADER, "t": 2, "z": -1})
    load_snapshot(path)
    write_with_header(path, {**HEADER, key: value})
    with pytest.raises(SnapshotError, match=f"header field {key} = "):
        load_snapshot(path)


def test_resume_from_header_of_wrong_type_is_an_error(tmp_path, capsys):
    # the CLI reports a malformed snapshot and exits with status 1
    from spheroid.cli import cli
    path = tmp_path / "a.snap"
    write_with_header(path, {**HEADER, "n": 21, "z": None}, nodes=21)
    status = cli(["simulate", "--grid-n", "21", "--tend", "0.2",
                  "--out", str(tmp_path), "--resume", str(path)])
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("error: ") and "header field z = None" in err


def test_short_file_is_truncated(tmp_path):
    # shorter than magic, header length and checksum together
    path = tmp_path / "a.snap"
    path.write_bytes(MAGIC + b"\x00" * 10)
    with pytest.raises(SnapshotError, match=r"truncated snapshot \(18 bytes\)"):
        load_snapshot(path)


def test_unreadable_header(tmp_path):
    # the checksum holds, but the header bytes are neither UTF-8 nor JSON
    path = tmp_path / "a.snap"
    for head in (b"\xff\xfe", b"{n: 3"):
        body = MAGIC + len(head).to_bytes(4, "little") + head
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(SnapshotError, match="unreadable header"):
            load_snapshot(path)


def test_wrong_payload_size(tmp_path):
    # a header for 3 nodes over the payload of 2: the checksum holds
    path = tmp_path / "a.snap"
    write_with_header(path, HEADER, nodes=2)
    size = len(path.read_bytes())
    with pytest.raises(SnapshotError,
                       match=f"wrong payload size {size} "
                             f"\\(expected {size + 16}\\)"):
        load_snapshot(path)


def test_unreadable_file(tmp_path):
    # a missing file or a directory is a SnapshotError naming the path
    for path in (tmp_path / "nope.snap", tmp_path):
        with pytest.raises(SnapshotError,
                           match=f"^{re.escape(str(path))}: cannot read "
                                 "snapshot: "):
            load_snapshot(path)
