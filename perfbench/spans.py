"""In-memory span recorder and the wrappers that feed it.

A traced run wraps public functions of ``repro.core`` from outside the
program: every module-level binding of a wrapped function is replaced,
at every import site (``from x import f`` copies the name, so patching
only the defining module would miss callers), and every wrapper is taken
out again when the ``Tracer`` closes. Spans hold name, start, end, parent
and the run id; they stay in memory until ``write_jsonl``.
"""
from __future__ import annotations

import functools
import json
import sys
from time import perf_counter
from typing import Callable

#: attribute that marks a wrapper installed by this module
MARK = "_perfbench_span"


class SpanRecorder:
    """Spans of one traced run, as parallel lists (cheap to append)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        #: span index -> counts recorded at the boundary (e.g. cells)
        self.attrs: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def __len__(self) -> int:
        return len(self.names)

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Duration minus the part covered by child spans. Spans come from
        one thread, so children never overlap each other."""
        dur = self.durations()
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def write_jsonl(self, fh) -> None:
        """One JSON object per span to the text file ``fh``."""
        for i, name in enumerate(self.names):
            rec = {"run": self.run_id, "i": i, "name": name, "parent": self.parent[i],
                   "start": self.start[i], "end": self.end[i]}
            if i in self.attrs:
                rec["attrs"] = self.attrs[i]
            fh.write(json.dumps(rec) + "\n")


class _Span:
    def __init__(self, rec: SpanRecorder, name: str):
        self.rec, self.name = rec, name

    def __enter__(self) -> int:
        self.i = self.rec.open(self.name)
        return self.i

    def __exit__(self, *exc) -> None:
        self.rec.close(self.i)


def _wrap(fn: Callable, name: str, rec: SpanRecorder,
          attrs: Callable[..., dict] | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)
            if attrs is not None:
                rec.attrs[i] = attrs(*args, **kwargs)

    setattr(wrapper, MARK, name)
    return wrapper


def _wrap_lazy_build(fn: Callable, name: str, rec: SpanRecorder) -> Callable:
    """Span only the calls that find the lazy attribute unset and build it
    (``ParserModel._ensure_index``); the cached path stays one check."""

    @functools.wraps(fn)
    def wrapper(self):
        if self._buckets is not None:
            return fn(self)
        i = rec.open(name)
        try:
            return fn(self)
        finally:
            rec.close(i)

    setattr(wrapper, MARK, name)
    return wrapper


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit.

    ``functions``: (module, attribute, span name, attrs callback or None).
    ``methods``: (class, attribute, span name, kind) with kind ``"call"``,
    ``"classmethod"`` or ``"lazy_build"``.
    """

    def __init__(self, rec: SpanRecorder, functions, methods):
        self.rec = rec
        self.functions = functions
        self.methods = methods
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> SpanRecorder:
        try:
            for module, attr, name, attrs in self.functions:
                original = getattr(module, attr)
                self._patch_everywhere(original, _wrap(original, name, self.rec, attrs))
            for cls, attr, name, kind in self.methods:
                raw = cls.__dict__[attr]
                if kind == "classmethod":
                    new = classmethod(_wrap(raw.__func__, name, self.rec, None))
                elif kind == "lazy_build":
                    new = _wrap_lazy_build(raw, name, self.rec)
                else:
                    new = _wrap(raw, name, self.rec, None)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, new)
        except BaseException:
            self.restore()
            raise
        return self.rec

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

