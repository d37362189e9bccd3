"""File formats for streams and ENF series.

Streams are stored as a JSON header plus a little-endian float32 sidecar
(same stem, .f32 extension) holding the raw samples / row means. ENF series
of two or more values round-trip through two-column CSV (time_s,freq_hz), and
all are also written as JSON. All writers are deterministic: keys are sorted
and floats use shortest-round-trip repr.
"""

from __future__ import annotations

import functools
import json
import math
import os
from typing import Union

import numpy as np

from .errors import InvalidArgumentError
from .media_synth import AudioStream, EnfSeries, VideoLumaStream, sample_view


def _payload_path(header_path: str) -> str:
    stem, _ = os.path.splitext(header_path)
    return stem + ".f32"


def dump_json(obj, path: str):
    """Write obj as deterministic JSON: sorted keys, 2-space indent, trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _series_to_dict(s: EnfSeries) -> dict:
    return {
        "start_time_s": float(s.start_time_s),
        "step_s": float(s.step_s),
        "values_hz": [float(v) for v in s.values_hz],
    }


def _series_from_dict(d: dict) -> EnfSeries:
    return EnfSeries(d["start_time_s"], d["step_s"], np.array(d["values_hz"], dtype=float))


def save_stream(stream: Union[AudioStream, VideoLumaStream], header_path: str):
    """Write a stream as JSON header + .f32 payload sidecar; no file if float32 can't hold it."""
    with np.errstate(over="ignore"):  # an overflow to inf is counted below
        payload = np.asarray(sample_view(stream)[0], dtype="<f4")
    bad = np.count_nonzero(~np.isfinite(payload))
    if bad:
        raise InvalidArgumentError(f"{bad} of {payload.size} values are not finite as float32")
    if isinstance(stream, AudioStream):
        header = {
            "kind": "audio",
            "sample_rate_hz": float(stream.sample_rate_hz),
            "n_samples": int(len(stream.samples)),
        }
    else:
        header = {
            "kind": "video",
            "fps": float(stream.fps),
            "frame_height": int(stream.frame_height),
            "n_frames": int(len(stream.frames)),
        }
    header.update(
        forged_intervals=[[float(a), float(b)] for a, b in stream.forged_intervals],
        truth=_series_to_dict(stream.truth),
        meta=stream.meta,
        payload=os.path.basename(_payload_path(header_path)),
    )
    dump_json(header, header_path)
    with open(_payload_path(header_path), "wb") as fh:
        payload.tofile(fh)


def load_stream(header_path: str):
    """Read a stream written by :func:`save_stream`.

    Raises InvalidArgumentError if the payload holds a different number of
    values than the header declares (a truncated or foreign .f32 file), if a
    video header names a shutter other than the rolling shutter that every
    video stream is (older files record "shutter": "RollingCMOS"), or if the
    stream record rejects a rate, or a truth that does not span the payload.
    """
    with open(header_path) as fh:
        header = json.load(fh)
    kind = header["kind"]
    if kind == "audio":
        shape = (int(header["n_samples"]),)
        make = functools.partial(AudioStream, header["sample_rate_hz"])
    elif kind == "video":
        if header.get("shutter", "RollingCMOS") != "RollingCMOS":
            raise InvalidArgumentError(f"unsupported video shutter: {header['shutter']!r}")
        shape = (int(header["n_frames"]), int(header["frame_height"]))
        make = functools.partial(VideoLumaStream, header["fps"])
    else:
        raise InvalidArgumentError(f"unknown stream kind: {kind!r}")
    raw = np.fromfile(_payload_path(header_path), dtype="<f4").astype(float)
    expected = math.prod(shape)
    if len(raw) != expected:
        raise InvalidArgumentError(
            f"{header_path}: payload holds {len(raw)} values, header declares {expected}"
        )
    return make(
        raw.reshape(shape),
        truth=_series_from_dict(header["truth"]),
        forged_intervals=[(float(a), float(b)) for a, b in header.get("forged_intervals", [])],
        meta=header.get("meta", {}),
    )


def save_enf_csv(series: EnfSeries, path: str):
    times = series.times()
    with open(path, "w") as fh:
        fh.write("time_s,freq_hz\n")
        for t, v in zip(times, series.values_hz):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def load_enf_csv(path: str) -> EnfSeries:
    """Read a series written by :func:`save_enf_csv`. The file records no step, so it is
    the first two rows' time difference: a file of fewer than two rows, or of unevenly
    spaced or non-finite times, raises InvalidArgumentError."""
    times = []
    vals = []
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("time_s"):
            raise InvalidArgumentError(f"{path}: expected 'time_s,freq_hz' header")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            t, v = line.split(",")
            times.append(float(t))
            vals.append(float(v))
    if len(times) < 2:
        raise InvalidArgumentError(f"{path}: fewer than two rows (one row holds no step)")
    step = times[1] - times[0]
    # every step must match the first to 1e-9 relative, beyond the rounding
    # of the written timestamps themselves; a NaN time matches none
    t = np.array(times)
    tol = 1e-9 * abs(step) + 4.0 * np.spacing(np.max(np.abs(t)))
    if not np.all(np.abs(np.diff(t) - step) <= tol):
        raise InvalidArgumentError(f"{path}: time column is not uniformly spaced")
    return EnfSeries(start_time_s=times[0], step_s=step, values_hz=np.array(vals))


def save_enf_json(series: EnfSeries, path: str):
    dump_json(_series_to_dict(series), path)
