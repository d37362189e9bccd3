"""File formats: every file enfnet writes goes through this module.

Streams are stored as a JSON header plus a little-endian float32 sidecar
(same stem, .f32 extension) holding the record's values; one table, _KINDS,
names each kind's record class and the header keys of its values' shape. ENF
series of two or more values round-trip through two-column CSV (time_s,
freq_hz), and all are also written as JSON. All writers are deterministic:
keys are sorted and floats use shortest-round-trip repr. Files are read back
by the rules they are written by: a parsed header or CSV row that breaks
them raises InvalidArgumentError, while a file that cannot be opened, or a
header that is not JSON, raises what ``open`` or ``json`` raises.
"""

from __future__ import annotations

import json
import math
import os
from typing import Union

import numpy as np

from .errors import InvalidArgumentError, _real, _whole
from .media_synth import AudioStream, EnfSeries, VideoLumaStream, sample_view

# kind -> (record class, one header key per axis of its values)
_KINDS = {
    "audio": (AudioStream, ("n_samples",)),
    "video": (VideoLumaStream, ("n_frames", "frame_height")),
}


def _payload_path(header_path: str) -> str:
    stem, _ = os.path.splitext(header_path)
    return stem + ".f32"


def dump_json(obj, path: str):
    """Write obj as deterministic JSON: sorted keys, 2-space indent, trailing newline. obj
    is serialized before the file is opened, so an obj json cannot hold writes no file."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def save_jsonl(path: str, records):
    """Write one deterministic JSON object (sorted keys) per line."""
    with open(path, "w") as fh:
        fh.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def save_csv(path: str, columns, rows):
    """Write a header line and one line per row: strings as they are, numbers as repr(float)."""
    with open(path, "w") as fh:
        fh.writelines(",".join(v if isinstance(v, str) else repr(float(v)) for v in row) + "\n"
                      for row in (columns, *rows))


def _series_to_dict(s: EnfSeries) -> dict:
    return {
        "start_time_s": float(s.start_time_s),
        "step_s": float(s.step_s),
        "values_hz": [float(v) for v in s.values_hz],
    }


def _series_from_dict(d: dict) -> EnfSeries:
    values = [_real(v, "truth values_hz", -math.inf) for v in d["values_hz"]]
    return EnfSeries(d["start_time_s"], d["step_s"], np.array(values, dtype=float))


def save_stream(stream: Union[AudioStream, VideoLumaStream], header_path: str):
    """Write a stream as JSON header + .f32 payload sidecar; no file if float32 can't hold it."""
    with np.errstate(over="ignore"):  # an overflow to inf is counted below
        payload = np.asarray(sample_view(stream)[0], dtype="<f4")
    bad = np.count_nonzero(~np.isfinite(payload))
    if bad:
        raise InvalidArgumentError(f"{bad} of {payload.size} values are not finite as float32")
    kind = next(k for k, (cls, _) in _KINDS.items() if isinstance(stream, cls))
    header = {"kind": kind, stream._RATE: float(getattr(stream, stream._RATE)),
              **dict(zip(_KINDS[kind][1], map(int, getattr(stream, stream._VALUES).shape))),
              "forged_intervals": [[float(a), float(b)] for a, b in stream.forged_intervals],
              "truth": _series_to_dict(stream.truth), "meta": stream.meta,
              "payload": os.path.basename(_payload_path(header_path))}
    dump_json(header, header_path)
    with open(_payload_path(header_path), "wb") as fh:
        payload.tofile(fh)


def load_stream(header_path: str):
    """Read a stream written by :func:`save_stream`.

    Raises InvalidArgumentError if the header lacks a key or holds a value of
    the wrong type (counts must be whole numbers, ``meta`` an object), if the
    payload holds another number of values than the header declares (a
    truncated or foreign .f32 file), if a video header names a shutter but the
    rolling one (older files record "shutter": "RollingCMOS"), or if the
    stream record rejects a rate, or a truth that does not span the payload.
    """
    with open(header_path) as fh:
        header = json.load(fh)
    try:
        kind = header["kind"]
        if kind not in _KINDS:
            raise InvalidArgumentError(f"unknown stream kind: {kind!r}")
        cls, shape_keys = _KINDS[kind]
        if kind == "video" and header.get("shutter", "RollingCMOS") != "RollingCMOS":
            raise InvalidArgumentError(f"unsupported video shutter: {header['shutter']!r}")
        shape = tuple(_whole(header[k], k, 0) for k in shape_keys)
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise InvalidArgumentError(f"{header_path}: meta must be an object, got {meta!r}")
        raw = np.fromfile(_payload_path(header_path), dtype="<f4")
        if len(raw) != math.prod(shape):
            raise InvalidArgumentError(f"{header_path}: payload holds {len(raw)} values, "
                                       f"header declares {math.prod(shape)}")
        intervals = [(float(a), float(b)) for a, b in header.get("forged_intervals", [])]
        return cls(header[cls._RATE], raw.reshape(shape), truth=_series_from_dict(header["truth"]),
                   forged_intervals=intervals, meta=meta)
    except InvalidArgumentError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{header_path}: malformed stream header: {exc!r}") from None


def save_enf_csv(series: EnfSeries, path: str):
    save_csv(path, ("time_s", "freq_hz"), zip(series.times(), series.values_hz))


def load_enf_csv(path: str) -> EnfSeries:
    """Read a series written by :func:`save_enf_csv`; blank lines are skipped. The file
    records no step, so it is the first two rows' time difference: a file of fewer than
    two rows, of a row that is not two numbers, or of unevenly spaced or non-finite
    times, raises InvalidArgumentError."""
    with open(path) as fh:
        header = fh.readline()
        rows = [line for line in fh if line.strip()]
    if not header.startswith("time_s"):
        raise InvalidArgumentError(f"{path}: expected 'time_s,freq_hz' header")
    if len(rows) < 2:
        raise InvalidArgumentError(f"{path}: fewer than two rows (one row holds no step)")
    try:
        t, vals = np.ascontiguousarray(np.loadtxt(rows, delimiter=",", comments=None, ndmin=2).T)
    except ValueError as exc:
        raise InvalidArgumentError(f"{path}: want rows of two numbers: {exc}") from None
    step = float(t[1] - t[0])
    # every step must match the first to 1e-9 relative, beyond the rounding
    # of the written timestamps themselves; a NaN time matches none
    tol = 1e-9 * abs(step) + 4.0 * np.spacing(np.max(np.abs(t)))
    if not np.all(np.abs(np.diff(t) - step) <= tol):
        raise InvalidArgumentError(f"{path}: time column is not uniformly spaced")
    return EnfSeries(start_time_s=float(t[0]), step_s=step, values_hz=vals)


def save_enf_json(series: EnfSeries, path: str):
    dump_json(_series_to_dict(series), path)
