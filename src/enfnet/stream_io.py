"""File formats for streams and ENF series.

Streams are stored as a JSON header plus a little-endian float32 sidecar
(same stem, .f32 extension) holding the raw samples / row means. ENF series
round-trip through two-column CSV (time_s,freq_hz) or JSON. All writers are
deterministic: keys are sorted and floats use shortest-round-trip repr.
"""

from __future__ import annotations

import json
import os
from typing import Union

import numpy as np

from .errors import InvalidArgumentError
from .media_synth import AudioStream, EnfSeries, ShutterType, VideoLumaStream


def _payload_path(header_path: str) -> str:
    stem, _ = os.path.splitext(header_path)
    return stem + ".f32"


def _dump_json(obj, path: str):
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
    """Write a stream as JSON header + .f32 payload sidecar."""
    if isinstance(stream, AudioStream):
        header = {
            "kind": "audio",
            "sample_rate_hz": float(stream.sample_rate_hz),
            "n_samples": int(len(stream.samples)),
            "forged_intervals": [[float(a), float(b)] for a, b in stream.forged_intervals],
            "truth": _series_to_dict(stream.truth),
            "meta": stream.meta,
            "payload": os.path.basename(_payload_path(header_path)),
        }
        payload = np.asarray(stream.samples, dtype="<f4")
    elif isinstance(stream, VideoLumaStream):
        header = {
            "kind": "video",
            "fps": float(stream.fps),
            "frame_height": int(stream.frame_height),
            "shutter": stream.shutter.value,
            "n_frames": int(len(stream.frames)),
            "forged_intervals": [[float(a), float(b)] for a, b in stream.forged_intervals],
            "truth": _series_to_dict(stream.truth),
            "meta": stream.meta,
            "payload": os.path.basename(_payload_path(header_path)),
        }
        payload = np.asarray(stream.frames, dtype="<f4").reshape(-1)
    else:
        raise InvalidArgumentError(f"unsupported stream type: {type(stream).__name__}")
    _dump_json(header, header_path)
    with open(_payload_path(header_path), "wb") as fh:
        fh.write(payload.tobytes())


def load_stream(header_path: str):
    """Read a stream written by :func:`save_stream`.

    Raises InvalidArgumentError if the payload holds a different number of
    values than the header declares (a truncated or foreign .f32 file).
    """
    with open(header_path) as fh:
        header = json.load(fh)
    kind = header["kind"]
    if kind == "audio":
        expected = int(header["n_samples"])
    elif kind == "video":
        expected = int(header["n_frames"]) * int(header["frame_height"])
    else:
        raise InvalidArgumentError(f"unknown stream kind: {kind!r}")
    raw = np.fromfile(_payload_path(header_path), dtype="<f4").astype(float)
    if len(raw) != expected:
        raise InvalidArgumentError(
            f"{header_path}: payload holds {len(raw)} values, header declares {expected}"
        )
    truth = _series_from_dict(header["truth"])
    forged = [(float(a), float(b)) for a, b in header.get("forged_intervals", [])]
    meta = header.get("meta", {})
    if kind == "audio":
        return AudioStream(
            sample_rate_hz=header["sample_rate_hz"],
            samples=raw,
            truth=truth,
            forged_intervals=forged,
            meta=meta,
        )
    h = int(header["frame_height"])
    return VideoLumaStream(
        fps=header["fps"],
        frame_height=h,
        shutter=ShutterType(header["shutter"]),
        frames=raw.reshape(-1, h),
        truth=truth,
        forged_intervals=forged,
        meta=meta,
    )


def save_enf_csv(series: EnfSeries, path: str):
    times = series.times()
    with open(path, "w") as fh:
        fh.write("time_s,freq_hz\n")
        for t, v in zip(times, series.values_hz):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def load_enf_csv(path: str) -> EnfSeries:
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
    if len(times) < 1:
        raise InvalidArgumentError(f"{path}: empty series")
    step = times[1] - times[0] if len(times) > 1 else 1.0
    # every step must match the first to 1e-9 relative, beyond the rounding
    # of the written timestamps themselves
    t = np.array(times)
    tol = 1e-9 * abs(step) + 4.0 * np.spacing(np.max(np.abs(t)))
    if np.any(np.abs(np.diff(t) - step) > tol):
        raise InvalidArgumentError(f"{path}: time column is not uniformly spaced")
    return EnfSeries(start_time_s=times[0], step_s=step, values_hz=np.array(vals))


def save_enf_json(series: EnfSeries, path: str):
    _dump_json(_series_to_dict(series), path)


def load_enf_json(path: str) -> EnfSeries:
    with open(path) as fh:
        return _series_from_dict(json.load(fh))


def save_samples_csv(samples, path: str):
    """One-column CSV of raw audio samples."""
    with open(path, "w") as fh:
        fh.write("sample\n")
        for v in np.asarray(samples, dtype=float):
            fh.write(f"{float(v)!r}\n")


def load_samples_csv(path: str) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("sample"):
            raise InvalidArgumentError(f"{path}: expected 'sample' header")
        return np.array([float(line) for line in fh if line.strip()], dtype=float)
