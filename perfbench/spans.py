"""In-memory spans and the name-level wrappers that record them.

The traced run wraps each layer's entry points *where callers look them
up* (modules import by name, so ``repro.runtime.engine.rasterize_region``
is patched rather than ``repro.geometry.rasterize.rasterize_region``).
Every wrapped call records one :class:`Span`; spans stay in per-thread
lists until the run ends.  :class:`Patch` restores every patched name to
its original object, so untimed and timed runs carry no wrapper.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One recorded call: ``[t0, t1]`` on the shared monotonic clock."""

    sid: int
    parent: Optional[int]
    trace: Optional[str]
    name: str
    thread: int
    t0: float
    t1: float = float("nan")
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class _ThreadState:
    def __init__(self) -> None:
        self.stack: List[Span] = []
        self.spans: List[Span] = []
        self.trace: Optional[str] = None


class Recorder:
    """Collects spans per thread; the parent is the thread's open span.

    ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, so spans recorded
    in the server process line up with the client's.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lists: List[List[Span]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._lists.append(state.spans)
        return state

    def open(
        self,
        name: str,
        trace: Optional[str] = None,
        parent: Optional[int] = None,
    ) -> Span:
        state = self._state()
        enclosing = state.stack[-1] if state.stack else None
        if parent is None and enclosing is not None:
            parent = enclosing.sid
        if trace is None:
            trace = state.trace
        if trace is None and enclosing is not None:
            trace = enclosing.trace
        span = Span(
            sid=next(self._ids),
            parent=parent,
            trace=trace,
            name=name,
            thread=threading.get_ident(),
            t0=self.clock(),
        )
        state.stack.append(span)
        state.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.t1 = self.clock()
        stack = self._state().stack
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)

    def set_trace(self, trace: Optional[str]) -> None:
        """Tag this thread's open spans and its next spans with ``trace``."""
        state = self._state()
        state.trace = trace
        if trace is not None:
            for span in state.stack:
                if span.trace is None:
                    span.trace = trace

    def add(self, span: Span) -> None:
        """Record a span measured by the caller (e.g. a whole job)."""
        self._state().spans.append(span)

    def new_span(self, name: str, trace: Optional[str], t0: float,
                 t1: float) -> Span:
        return Span(next(self._ids), None, trace, name,
                    threading.get_ident(), t0, t1)

    def spans(self) -> List[Span]:
        with self._lock:
            return [s for spans in self._lists for s in spans]


#: ``observe(recorder, span, args, result)`` runs after the wrapped call
Observe = Callable[[Recorder, Span, tuple, object], None]
#: ``trace_of(args)`` names the call's trace before it starts
TraceOf = Callable[[tuple], Optional[str]]


@dataclass(frozen=True)
class Target:
    """A name to wrap: ``"package.module:Name"`` or ``":Class.method"``."""

    path: str
    span: str
    observe: Optional[Observe] = None
    trace_of: Optional[TraceOf] = None


_ABSENT = object()


def _resolve(path: str) -> Tuple[object, str]:
    module_name, _, qualname = path.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _raw_attr(owner: object, attr: str) -> object:
    """The attribute as stored (staticmethod/classmethod objects intact)."""
    for klass in getattr(owner, "__mro__", (owner,)):
        namespace = vars(klass)
        if attr in namespace:
            return namespace[attr]
    raise AttributeError(f"{owner!r} has no attribute {attr!r}")


def _wrap(fn: Callable, recorder: Recorder, target: Target) -> Callable:
    name, observe, trace_of = target.span, target.observe, target.trace_of

    def wrapper(*args, **kwargs):
        trace = trace_of(args) if trace_of is not None else None
        span = recorder.open(name, trace=trace)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(span)
        if observe is not None:
            observe(recorder, span, args, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


class Patch:
    """Install wrappers for ``targets``; :meth:`restore` undoes it.

    Usable as a context manager.  Restoring puts back the exact objects
    found at install time (or deletes the name where a class only
    inherited it), so identity checks hold afterwards.
    """

    def __init__(self, recorder: Recorder, targets: Sequence[Target]) -> None:
        self.recorder = recorder
        self.targets = tuple(targets)
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> "Patch":
        if self._saved:
            raise RuntimeError("wrappers already installed")
        try:
            for target in self.targets:
                owner, attr = _resolve(target.path)
                own = vars(owner).get(attr, _ABSENT)
                raw = _raw_attr(owner, attr)
                if isinstance(raw, staticmethod):
                    new: object = staticmethod(
                        _wrap(raw.__func__, self.recorder, target)
                    )
                elif isinstance(raw, classmethod):
                    new = classmethod(_wrap(raw.__func__, self.recorder, target))
                else:
                    new = _wrap(raw, self.recorder, target)
                self._saved.append((owner, attr, own))
                setattr(owner, attr, new)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def __enter__(self) -> "Patch":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by the union of ``[a, b]`` intervals."""
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def clipped(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> List[Tuple[float, float]]:
    return [(max(a, lo), min(b, hi)) for a, b in intervals
            if min(b, hi) > max(a, lo)]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children are spans naming it as parent, from any thread; children
    that overlap each other (concurrent threads) are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.t0, span.t1))
    return {
        span.sid: span.duration - union_length(
            clipped(children.get(span.sid, ()), span.t0, span.t1)
        )
        for span in spans
    }
