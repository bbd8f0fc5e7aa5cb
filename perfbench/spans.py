"""Outside-in tracing for the benchmark: spans, self time and patching.

The program under test carries no benchmark instrumentation.  A traced
run instead replaces selected public functions and methods of
``repro`` with thin wrappers that open a span around the real call, and
puts every original back when the run ends.  Spans nest on one stack
(the benchmark is single-threaded), so a span's *self time* is its
duration minus the time covered by the spans it encloses.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple


class SpanTracer:
    """Aggregates self time and call counts per span name.

    Only aggregates are kept (no per-span records), so a long traced
    run of a microsecond-scale workload stays small in memory.
    ``clock`` is injectable so the self-time arithmetic can be tested
    on a synthetic span tree.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._stack: List[list] = []  # [name, start, time covered by children]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)  # inclusive
        self.calls: Counter = Counter()
        #: exact counters recorded at span boundaries (MACs, candidates)
        self.counts: Counter = Counter()

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - covered
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @property
    def depth(self) -> int:
        return len(self._stack)

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError(f"reset inside open spans {[s[0] for s in self._stack]}")
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.counts.clear()

    def snapshot(self) -> "SpanTracer":
        """A frozen copy of the aggregates (shares the clock)."""
        copy = SpanTracer(self.clock)
        copy.self_s.update(self.self_s)
        copy.total_s.update(self.total_s)
        copy.calls.update(self.calls)
        copy.counts.update(self.counts)
        return copy


class Patcher:
    """Replaces attributes and restores every one of them on :meth:`restore`."""

    _MISSING = object()

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def patch_attr(self, owner: object, name: str, value: object) -> None:
        """Set ``owner.name = value``; a class attribute it only inherited
        is removed again on restore rather than pinned to the parent's."""
        if isinstance(owner, type):
            old = owner.__dict__.get(name, self._MISSING)
        else:
            old = vars(owner).get(name, self._MISSING)
        self._undo.append((owner, name, old))
        setattr(owner, name, value)

    def patch_everywhere(self, original: Callable, wrapper: Callable) -> int:
        """Rebind every module-level reference to ``original`` in ``repro``.

        Catches both ``module.func`` lookups and names bound by
        ``from module import func``.  Returns the number of bindings
        replaced; zero means the function is no longer reachable that way.
        """
        n = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self.patch_attr(mod, attr, wrapper)
                    n += 1
        return n

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            if old is self._MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, old)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def spanned(tracer: SpanTracer, name: str, fn: Callable, on_result: Callable = None) -> Callable:
    """``fn`` wrapped in a span; ``on_result(result, args, kwargs)`` may
    record exact counts from the call's shapes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if on_result is not None:
            on_result(result, args, kwargs)
        return result

    return wrapper


def spanned_iter(tracer: SpanTracer, name: str, iter_fn: Callable) -> Callable:
    """Wrap an ``__iter__`` so the time spent producing each item is a span."""

    @functools.wraps(iter_fn)
    def wrapper(self):
        it = iter_fn(self)
        while True:
            tracer.enter(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.exit()
            yield item

    return wrapper
