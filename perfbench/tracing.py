"""Per-layer self times taken from outside the program.

The benchmark changes no program code: :class:`LayerTracer` replaces
chosen functions of the program's modules (class attributes, module
attributes or attributes of one object) with timing wrappers while a
traced run is in progress, and puts the originals back afterwards.

A wrapped call is a span named after the layer it enters.  Spans nest
per thread; a layer's *self time* is its span's duration minus the
part covered by wrapped calls made inside it.  An *opaque* span keeps
everything beneath it as its own time (used where a layer's definition
includes work done through other layers, e.g. OCSVM fitting includes
its ν tuning).

With ``enabled`` false a wrapper adds one attribute test per call, so a
traced run can alternate traced and untraced blocks and report the
tracing overhead from the same process.  Untraced runs install no
wrappers at all.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("layer", "opaque", "child_s")

    def __init__(self, layer: str, opaque: bool):
        self.layer = layer
        self.opaque = opaque
        self.child_s = 0.0


class LayerTracer:
    def __init__(self):
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object, bool]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, layer: str, seconds: float, calls: int = 1) -> None:
        """Book time measured by a custom hook (e.g. a queue wait)."""
        with self._lock:
            self.self_s[layer] += seconds
            self.calls[layer] += calls

    def span(self, layer: str, fn, opaque: bool = False):
        """``fn`` wrapped as a span of ``layer``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack and stack[-1].opaque:
                return fn(*args, **kwargs)
            frame = _Frame(layer, opaque)
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
                self.add(layer, elapsed - frame.child_s)

        return wrapper

    def patch(self, owner, attr: str, layer: str, opaque: bool = False) -> None:
        """Replace ``owner.attr`` by a span of ``layer`` until :meth:`restore`.

        ``owner`` is a class (the wrapper is set on that class only, so a
        method inherited from a base class is traced for this subclass
        alone), a module, or a single object.
        """
        had_own = attr in getattr(owner, "__dict__", {})
        original = getattr(owner, attr)
        setattr(owner, attr, self.span(layer, original, opaque))
        self._patched.append((owner, attr, original, had_own))

    def restore(self) -> None:
        for owner, attr, original, had_own in reversed(self._patched):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def snapshot(self) -> dict:
        with self._lock:
            return {"self_s": dict(self.self_s), "calls": dict(self.calls)}
