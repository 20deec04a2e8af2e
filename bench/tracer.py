"""Spans and call counts around prostar's public functions, recorded from outside.

`Tracer.installed()` replaces each traced function or method by a wrapper,
wherever a prostar module binds it (a name one module imports from another is
wrapped in both places), and puts the originals back on exit. Nothing under
`src/` changes.

Each span records its name, start, end and parent; spans are kept per thread,
so a task run on a pool thread has no parent and the pool's waiting shows as
self time of `scenario.run_scenario`. Two high-frequency methods are counted
but not timed. With `memory=True` (used only under `tracemalloc`), each span
also records the peak of traced allocation above its starting level.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
import tracemalloc

# Metric prefix -> (module, attribute path). Spans: timed and counted.
SPANS = {
    "linalg.hermitian_eigendecomposition": ("prostar.linalg", "hermitian_eigendecomposition"),
    "algebra.verify_star_homomorphism": ("prostar.algebra", "verify_star_homomorphism"),
    "algebra.wedderburn_decompose": ("prostar.algebra", "wedderburn_decompose"),
    "groups.check_covariance": ("prostar.groups", "check_covariance"),
    "modules.AdjointableOperator.is_unitary": ("prostar.modules", "AdjointableOperator.is_unitary"),
    "cpmaps.verify_completely_positive": (
        "prostar.cpmaps",
        "CompletelyPositiveMap.verify_completely_positive",
    ),
    "cpmaps.verify_representation": ("prostar.cpmaps", "CompletelyPositiveMap.verify_representation"),
    "dilation.gram_operator": ("prostar.dilation", "gram_operator"),
    "dilation.minimal_dilation": ("prostar.dilation", "minimal_dilation"),
    "dilation.covariant_extend": ("prostar.dilation", "covariant_extend"),
    "dilation.verify_dilation": ("prostar.dilation", "verify_dilation"),
    "dilation.uniqueness_unitary": ("prostar.dilation", "uniqueness_unitary"),
    "crossed.ConvolutionElement.convolve": ("prostar.crossed", "ConvolutionElement.convolve"),
    "crossed.build_crossed_product": ("prostar.crossed", "build_crossed_product"),
    "crossed.integrated_form": ("prostar.crossed", "integrated_form"),
    "crossed.extend_covariant_cp": ("prostar.crossed", "extend_covariant_cp"),
    "tower.levelwise_dilation_coherence": ("prostar.tower", "levelwise_dilation_coherence"),
    "recipes.random_covariant_cp": ("prostar.recipes", "random_covariant_cp"),
    "scenario.parse_scenario": ("prostar.scenario", "parse_scenario"),
    "scenario.run_task": ("prostar.scenario", "run_task"),
    "scenario.run_scenario": ("prostar.scenario", "run_scenario"),
    "report.Report.to_json": ("prostar.report", "Report.to_json"),
    "report.Report.to_text": ("prostar.report", "Report.to_text"),
    "cli.main": ("prostar.cli", "main"),
}

# Called hundreds of thousands of times per pass: counted, never timed.
COUNTED = {
    "algebra.AlgebraElement.mul": ("prostar.algebra", "AlgebraElement.__mul__"),
    "groups.GroupAction.apply": ("prostar.groups", "GroupAction.apply"),
}

MB = 1024.0 * 1024.0


class _Span:
    __slots__ = ("name", "start", "end", "parent", "base", "peak")

    def __init__(self, name: str, parent: "_Span | None"):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None
        self.base = 0
        self.peak = 0


class Tracer:
    """Collects spans and counts while installed; aggregates them per name."""

    def __init__(self, *, memory: bool = False):
        self.memory = memory
        self._local = threading.local()
        self._threads: list[tuple[list, dict]] = []  # (spans, counts) per thread
        self._register = threading.Lock()
        self._mem_lock = threading.Lock()
        self._open: list[_Span] = []

    def _state(self):
        local = self._local
        try:
            return local.spans, local.stack, local.counts
        except AttributeError:
            local.spans, local.stack, local.counts = [], [], {}
            with self._register:
                self._threads.append((local.spans, local.counts))
            return local.spans, local.stack, local.counts

    # -- memory peaks ------------------------------------------------------

    def _fold_peak(self) -> int:
        """Credit the peak since the last reset to every open span; reset it."""
        current, peak = tracemalloc.get_traced_memory()
        for span in self._open:
            span.peak = max(span.peak, peak)
        tracemalloc.reset_peak()
        return current

    def _mem_enter(self, span: _Span) -> None:
        with self._mem_lock:
            span.base = self._fold_peak()
            span.peak = span.base
            self._open.append(span)

    def _mem_exit(self, span: _Span) -> None:
        with self._mem_lock:
            self._fold_peak()
            self._open.remove(span)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack, _ = self._state()
            span = _Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            if self.memory:
                self._mem_enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                if self.memory:
                    self._mem_exit(span)
                span.end = time.perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._state()[2]
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced callable for the duration of the block."""
        undo = []
        try:
            for table, make in ((SPANS, self._timed), (COUNTED, self._counted)):
                for name, (module_name, path) in table.items():
                    undo.extend(_patch(module_name, path, make(name, _resolve(module_name, path))))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, busy_s (summed duration), self_s, peak_mb."""
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "peak_mb": 0.0} for name in SPANS}
        for name in COUNTED:
            out[name] = {"calls": 0}
        for spans, counts in self._threads:
            child_time: dict[int, float] = {}
            for span in spans:
                if span.end is None:
                    continue
                duration = span.end - span.start
                if span.parent is not None:
                    child_time[id(span.parent)] = child_time.get(id(span.parent), 0.0) + duration
            for span in spans:
                if span.end is None:
                    continue
                duration = span.end - span.start
                entry = out[span.name]
                entry["calls"] += 1
                entry["busy_s"] += duration
                entry["self_s"] += duration - child_time.get(id(span), 0.0)
                entry["peak_mb"] = max(entry["peak_mb"], (span.peak - span.base) / MB)
            for name, n in counts.items():
                out[name]["calls"] += n
        return out

    def spans(self) -> list[dict]:
        """Every finished span, for the per-run record."""
        rows = []
        for thread, (spans, _) in enumerate(self._threads):
            index = {id(s): k for k, s in enumerate(spans)}
            for k, span in enumerate(spans):
                if span.end is None:
                    continue
                rows.append(
                    {
                        "thread": thread,
                        "id": k,
                        "parent": None if span.parent is None else index[id(span.parent)],
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                    }
                )
        return rows


def _resolve(module_name: str, path: str):
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _patch(module_name: str, path: str, wrapper) -> list:
    """Bind `wrapper` wherever prostar binds the original; return the undo list."""
    owner_path, _, attr = path.rpartition(".")
    if owner_path:  # a method: one binding, on its class
        owner = _resolve(module_name, owner_path)
        original = owner.__dict__[attr]
        setattr(owner, attr, wrapper)
        return [(owner, attr, original)]
    original = getattr(importlib.import_module(module_name), attr)
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "prostar" or name.startswith("prostar.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                undo.append((module, key, original))
    return undo
