"""In-memory spans around the public calls into each combsync layer.

A :class:`Tracer` replaces a fixed list of public functions, in every
``combsync`` module namespace that holds them, with wrappers that record
one span per call: name, start, end, parent span and the op it belongs
to, plus a few exact counts taken from the call's arguments or result.
Leaving the ``with`` block restores the original functions, so only the
traced part of a run pays for the wrappers.  Nothing in ``src/`` knows
about this module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    op: int = -1
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def fft_points(kind_value: str, count: int) -> int:
    """Padded rfft length one ``generate_noise`` call uses (computed, not timed).

    Mirrors the documented synthesis rule: white kinds need no shaping
    filter; the others filter ``2 * n`` draws, where ``n`` is ``count``
    for FM kinds and ``count + 1`` phase samples for PM kinds, through an
    FFT padded to the next power of two above ``2 * (2 * n) - 1``.
    """
    if kind_value in ("white_pm", "white_fm"):
        return 0
    n = count + 1 if kind_value.endswith("_pm") else count
    return 1 << (4 * n - 1).bit_length()


def _noise_attrs(args, kwargs, result) -> dict:
    spec = _arg(args, kwargs, 0, "spec")
    count = len(result)
    points = fft_points(spec.kind.value, count) if spec.amplitude != 0.0 else 0
    return {"kind": spec.kind.value, "samples": count, "fft_points": points}


def _curve_attrs(args, kwargs, result) -> dict:
    variant = _arg(args, kwargs, 2, "variant")
    return {"variant": variant.value, "points": len(result.points), "skipped_m": len(result.warnings)}


#: (module, function, attrs(args, kwargs, result) or None) for every traced call.
TRACED: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("noisegen", "generate_noise", _noise_attrs),
    ("stability", "stability_curve", _curve_attrs),
    ("stability", "fit_slope", None),
    ("clockmodel", "sample_clock", None),
    ("synclink", "run_sync_campaign", lambda a, k, r: {"exchanges": len(r.estimates)}),
    ("synclink", "simulate_exchange", lambda a, k, r: {"exchanges": 1}),
    ("quantum", "monte_carlo_sigma", lambda a, k, r: {"draws": int(_arg(a, k, 1, "trials"))}),
    ("config", "load_config", None),
    ("cli", "main", lambda a, k, r: {"command": _arg(a, k, 0, "argv")[0]}),
)


class Tracer:
    """Records spans while active; ``with tracer:`` installs the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def _wrap(self, fn: Callable, name: str, attrs: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None, op=self.op)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        originals = [getattr(importlib.import_module(f"combsync.{module_name}"), func_name)
                     for module_name, func_name, _ in TRACED]
        modules = [m for n, m in sys.modules.items() if n == "combsync" or n.startswith("combsync.")]
        for (module_name, func_name, attrs), original in zip(TRACED, originals):
            wrapper = self._wrap(original, f"{module_name}.{func_name}", attrs)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer calls, busy/self seconds and exact counts from one traced cycle.

    Every per-layer metric is present; a layer that was never called
    reports zero calls and zero time.
    """
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own_time: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for span, own in zip(spans, self_times(spans)):
        calls[span.name] += 1
        busy[span.name] += span.duration
        own_time[span.name] += own
        a = span.attrs  # empty when the call raised
        if not a:
            continue
        if span.name == "noisegen.generate_noise":
            busy[f"noisegen.{a['kind']}"] += span.duration
            counts["noisegen.samples"] += a["samples"]
            counts["noisegen.fft_points"] += a["fft_points"]
        elif span.name == "stability.stability_curve":
            busy[f"stability.{a['variant']}"] += span.duration
            counts["stability.points"] += a["points"]
            counts["stability.skipped_m"] += a["skipped_m"]
        elif span.name in ("synclink.run_sync_campaign", "synclink.simulate_exchange"):
            counts["synclink.exchanges"] += a["exchanges"]
        elif span.name == "quantum.monte_carlo_sigma":
            counts["quantum.draws"] += a["draws"]
        elif span.name == "cli.main":
            busy[f"cli.{a['command']}"] += span.duration

    out: dict[str, float] = {}
    for name in (
        "noisegen.generate_noise", "stability.stability_curve", "clockmodel.sample_clock",
        "synclink.run_sync_campaign", "synclink.simulate_exchange", "quantum.monte_carlo_sigma",
        "config.load_config", "cli.main",
    ):
        out[f"{name}.calls"] = calls[name]
    for name in (
        "noisegen.generate_noise", "noisegen.white_pm", "noisegen.flicker_pm", "noisegen.white_fm",
        "noisegen.flicker_fm", "noisegen.random_walk_fm", "stability.ffi0", "stability.ffi1",
        "stability.ffi2", "stability.tdev", "stability.fit_slope", "clockmodel.sample_clock",
        "synclink.run_sync_campaign", "synclink.simulate_exchange", "quantum.monte_carlo_sigma",
        "config.load_config", "cli.main", "cli.noise", "cli.stability", "cli.sync",
        "cli.quantum-scaling", "cli.advantage",
    ):
        out[f"{name}.busy_s"] = busy[name]
    for name in ("clockmodel.sample_clock", "synclink.run_sync_campaign", "cli.main"):
        out[f"{name}.self_s"] = own_time[name]
    for name in (
        "noisegen.samples", "noisegen.fft_points", "stability.points", "stability.skipped_m",
        "synclink.exchanges", "quantum.draws",
    ):
        out[name] = counts[name]
    return out


def spans_to_json(spans: list[Span]) -> list[dict]:
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op, **s.attrs}
        for s in spans
    ]
