"""In-memory span tracer that wraps enfnet's public functions from outside.

Each target function is replaced at every module binding that holds it,
including the ``from ... import`` copies in ``enfnet``, ``enfnet.harness``
and ``enfnet.cli``. Because the modules look their globals up at call
time, internal calls such as ``forge_segments -> embed_audio`` and
``run_round -> compute_scores`` are caught without editing the package.

A span is ``(name, start, end, parent, item)``; ``parent`` is the index of
the enclosing span or -1. Counters are updated by per-function hooks that
run after the call returns, outside the span they describe.
"""

from __future__ import annotations

import collections
import importlib
import json
import os
import sys
import time

import numpy as np

# module -> public functions wrapped there; span names are the bare
# function names, which are unique across these modules
TARGETS = {
    "enf_estimation": (
        "spectrogram", "preprocess_audio", "estimate_enf", "video_row_signal",
        "harmonic_weights", "combine_and_track",
    ),
    "media_synth": ("embed_audio", "embed_video", "forge_segments", "gen_enf_truth"),
    "poenf_consensus": (
        "run_round", "compute_scores", "validate_transaction", "select_ground_truth",
    ),
    "detection": ("sliding_window_detect", "roc_curve"),
    "harness": ("make_detection_corpus", "stream_score", "localization_accuracy", "run_scenario"),
    "stream_io": ("save_stream", "load_stream", "save_enf_csv", "load_enf_csv"),
    "cli": ("main",),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_mb(*paths):
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p)) / 1e6


def _spectrogram_hook(counters, args, kwargs, psm):
    cfg = _arg(args, kwargs, 2, "cfg")
    n_time, n_freq = psm.power.shape
    # bins the estimator reads: +-4 halfwidths around each harmonic
    in_band = np.zeros(n_freq, dtype=bool)
    for k in cfg.harmonics:
        in_band |= np.abs(psm.freq_bins - k * cfg.nominal_hz) <= 4.0 * k * cfg.band_halfwidth_hz
    counters["spectrogram.bins_computed"] += n_time * n_freq
    counters["spectrogram.band_bins"] += n_time * int(in_band.sum())
    counters["spectrogram.mb_computed"] += psm.power.nbytes / 1e6


def _save_stream_hook(counters, args, kwargs, _):
    header = _arg(args, kwargs, 1, "header_path")
    counters["mb_written"] += _file_mb(header, os.path.splitext(header)[0] + ".f32")


def _save_enf_csv_hook(counters, args, kwargs, _):
    counters["mb_written"] += _file_mb(_arg(args, kwargs, 1, "path"))


def _main_hook(counters, args, kwargs, code):
    counters["cli.errors"] += int(code != 0)


HOOKS = {
    "spectrogram": _spectrogram_hook,
    "embed_audio": lambda c, a, k, s: c.update({"samples_synthesized": len(s.samples)}),
    "embed_video": lambda c, a, k, s: c.update({"samples_synthesized": s.frames.size}),
    "validate_transaction": lambda c, a, k, r: c.update(
        {"validate_transaction.rejected": int(not r.accepted)}),
    "sliding_window_detect": lambda c, a, k, r: c.update(
        {"sliding_window_detect.windows": len(r.windows)}),
    "save_stream": _save_stream_hook,
    "save_enf_csv": _save_enf_csv_hook,
    "main": _main_hook,
}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, item]
        self.counters = collections.Counter()
        self.item = None
        self._stack = []
        self._last_exc = None
        self._patched = []  # (module, attribute, original)

    def _wrap(self, fn, name, module):
        spans, stack, counters, hook = self.spans, self._stack, self.counters, HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                # count each exception once, in the innermost layer it left
                if exc is not self._last_exc:
                    self._last_exc = exc
                    counters[f"{module}.errors"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Wrap every target at every binding in the loaded enfnet modules."""
        wrappers = {}
        for module, names in TARGETS.items():
            mod = importlib.import_module(f"enfnet.{module}")
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(fn, name, module))
        mods = [m for key, m in list(sys.modules.items())
                if m is not None and (key == "enfnet" or key.startswith("enfnet."))]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals.

    ``spans`` is a sequence of ``(name, start, end, parent, item)``; returns a
    list of floats aligned with it.
    """
    children = collections.defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def layer_totals(spans):
    """name -> (total self seconds, call count) over all spans."""
    totals = collections.defaultdict(lambda: [0.0, 0])
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]][0] += own
        totals[span[0]][1] += 1
    return {name: (t, n) for name, (t, n) in totals.items()}
