"""Binary state snapshots with an embedded checksum.

Layout (little-endian, documented for external readers):

    bytes 0..7    magic ``SPHRSNP\\x01``
    bytes 8..11   uint32 header length H
    bytes 12..12+H  UTF-8 JSON header: version, n, step, output_index,
                    t, z, config_hash, code_version
    next 8n bytes  c as float64
    next 8n bytes  p as float64
    last 32 bytes  SHA-256 of everything preceding

Floats round-trip exactly (JSON uses shortest-repr doubles; arrays are
raw IEEE-754), so save -> load reproduces the state bit for bit.
"""

import hashlib
import json
import math

import numpy as np

from . import __version__
from .errors import SnapshotError
from .evolution import State

MAGIC = b"SPHRSNP\x01"
FORMAT_VERSION = 1


def _integer(value, least):
    # json loads true and false as bools, whose type is not int
    return type(value) is int and value >= least


def _finite(value):
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:   # an integer beyond the float range
        return False


# each header field a snapshot needs: the test of its value, and its type
FIELDS = {"n": (lambda v: _integer(v, 1), "a positive integer"),
          "t": (_finite, "a finite number"), "z": (_finite, "a finite number"),
          "step": (lambda v: _integer(v, 0), "a non-negative integer"),
          "output_index": (lambda v: _integer(v, 0), "a non-negative integer"),
          "config_hash": (lambda v: type(v) is str, "a string")}


def save_snapshot(state, path, step=0, output_index=0, config_hash=""):
    """Write the state to ``path``; returns the number of bytes written."""
    header = {
        "version": FORMAT_VERSION,
        "n": int(state.c.size),
        "step": int(step),
        "output_index": int(output_index),
        "t": float(state.t),
        "z": float(state.z),
        "config_hash": config_hash,
        "code_version": __version__,
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    body = (MAGIC + len(head).to_bytes(4, "little") + head
            + np.ascontiguousarray(state.c, dtype="<f8").tobytes()
            + np.ascontiguousarray(state.p, dtype="<f8").tobytes())
    blob = body + hashlib.sha256(body).digest()
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def load_snapshot(path, expect_n=None):
    """Read a snapshot; returns (State, header dict).

    Raises :class:`SnapshotError` on a file that cannot be read, bad magic,
    version, checksum, length, a header that is not a JSON object, lacks a
    field of :data:`FIELDS` or holds a value of the wrong type there, or a
    grid size differing from ``expect_n``.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot read snapshot: {exc}") from exc
    if len(blob) < len(MAGIC) + 4 + 32:
        raise SnapshotError(f"{path}: truncated snapshot ({len(blob)} bytes)")
    if blob[:len(MAGIC)] != MAGIC:
        raise SnapshotError(f"{path}: bad magic; not a snapshot file")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise SnapshotError(f"{path}: checksum mismatch (file corrupt or truncated)")
    head_len = int.from_bytes(blob[8:12], "little")
    try:
        header = json.loads(blob[12:12 + head_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise SnapshotError(f"{path}: header is not a JSON object")
    missing = [key for key in FIELDS if key not in header]
    if missing:
        raise SnapshotError(f"{path}: header lacks {', '.join(missing)}")
    if header.get("version") != FORMAT_VERSION:
        raise SnapshotError(
            f"{path}: format version {header.get('version')} not supported "
            f"(expected {FORMAT_VERSION})")
    for key, (valid, kind) in FIELDS.items():
        if not valid(header[key]):
            raise SnapshotError(
                f"{path}: header field {key} = {header[key]!r} is not {kind}")
    n = header["n"]
    if expect_n is not None and n != expect_n:
        raise SnapshotError(
            f"{path}: snapshot grid n={n} does not match active grid n={expect_n}")
    offset = 12 + head_len
    expected = offset + 16 * n + 32
    if len(blob) != expected:
        raise SnapshotError(
            f"{path}: wrong payload size {len(blob)} (expected {expected})")
    c = np.frombuffer(blob, dtype="<f8", count=n, offset=offset).copy()
    p = np.frombuffer(blob, dtype="<f8", count=n, offset=offset + 8 * n).copy()
    state = State(t=float(header["t"]), z=float(header["z"]), c=c, p=p)
    return state, header
