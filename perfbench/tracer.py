"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: the tracer replaces
module attributes of `omnisync` with timing wrappers for as long as it is
installed, and puts the originals back afterwards.  Because every `omnisync`
module looks its imported names up at call time, wrapping the name that
`montecarlo` imported from `channel` times exactly the calls that cross that
module boundary.

A span is named `<layer>.<function>`, where the layer is the module the
function is defined in.  The traced run is serial, so spans nest properly
and a layer's self time is its spans' durations minus their children's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import time
from dataclasses import dataclass

LAYERS = ("codebook", "channel", "analysis", "detector", "montecarlo", "cli")

# Modules whose imports from sibling modules are wrapped: every call they
# make into another layer becomes a span.
IMPORTING_MODULES = ("montecarlo", "detector", "cli")

# Names the benchmark calls directly, plus the pattern evaluator that
# verification calls inside `codebook` (it crosses no module boundary).
ENTRY_POINTS = (
    ("montecarlo", "sweep"),
    ("montecarlo", "run_md_reduced"),
    ("montecarlo", "run_md_full"),
    ("montecarlo", "estimate_fa"),
    ("montecarlo", "results_to_csv"),
    ("codebook", "build_omni_codebook"),
    ("codebook", "verify_codebook"),
    ("codebook", "beam_pattern"),
    ("codebook", "codebook_to_json"),
    ("codebook", "codebook_from_json"),
    ("detector", "threshold_from_fa"),
    ("analysis", "fa_closed_form"),
    ("cli", "experiment_config_from_doc"),
)

# Bytes a wrapped call produces, computed from the requested shape: the
# complex normal draws are complex128 arrays.
_BYTES_OF = {
    "channel._complex_normal": lambda rng, shape: 16 * math.prod(
        (shape,) if isinstance(shape, int) else tuple(shape)),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int  # spans recorded in one `recording` block share this number


def _module(short: str):
    return importlib.import_module(f"omnisync.{short}")


def wrap_targets() -> list[tuple[object, str, str]]:
    """(module, attribute, span name) for every name the tracer wraps."""
    targets = {}
    for short in IMPORTING_MODULES:
        mod = _module(short)
        for attr, fn in vars(mod).items():
            home = getattr(fn, "__module__", "") or ""
            if (inspect.isfunction(fn) and home.startswith("omnisync.")
                    and home != mod.__name__):
                targets[(short, attr)] = f"{home.rsplit('.', 1)[1]}.{fn.__name__}"
    for short, attr in ENTRY_POINTS:
        targets[(short, attr)] = f"{short}.{attr}"
    return [(_module(short), attr, name) for (short, attr), name in sorted(targets.items())]


class Tracer:
    """Records spans while installed and recording; see `installed`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.bytes: dict[str, int] = {}
        self._stack: list[int] = []
        self._recording = False
        self._op = 0

    def _wrap(self, fn, name):
        measure = _BYTES_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Only the outermost of nested same-name calls is a span, so a
            # name's total time counts each interval once.
            if not self._recording or any(self.spans[i].name == name for i in self._stack):
                return fn(*args, **kwargs)
            if measure is not None:
                self.bytes[name] = self.bytes.get(name, 0) + measure(*args, **kwargs)
            span = Span(name, time.perf_counter(), math.nan,
                        self._stack[-1] if self._stack else None, self._op)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wraps every target for the duration of the block, then restores it."""
        saved = []
        try:
            for mod, attr, name in wrap_targets():
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    @contextlib.contextmanager
    def recording(self):
        """Installed wrappers record spans only inside this block."""
        self._op += 1
        self._recording = True
        try:
            yield self
        finally:
            self._recording = False

    # ----- aggregation -----

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its direct children."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = []
        for i, span in enumerate(self.spans):
            covered = 0.0
            edge = span.start
            for child in sorted(children.get(i, ()), key=lambda s: s.start):
                lo, hi = max(child.start, edge, span.start), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.append(max(0.0, (span.end - span.start) - covered))
        return out

    def layer_self(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for span, own in zip(self.spans, self.self_times()):
            layer = span.name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def total(self, names) -> float:
        """Summed duration of spans named in `names`, outermost only."""
        names = set(names)
        out = 0.0
        for span in self.spans:
            parent = span.parent
            nested = False
            while parent is not None:
                if self.spans[parent].name in names:
                    nested = True
                    break
                parent = self.spans[parent].parent
            if span.name in names and not nested:
                out += span.end - span.start
        return out

    def count(self, names, parent_names=None) -> int:
        names = set(names)
        return sum(1 for s in self.spans if s.name in names and (
            parent_names is None
            or (s.parent is not None and self.spans[s.parent].name in parent_names)))

    def dump(self) -> list[dict]:
        return [vars(s) for s in self.spans]

