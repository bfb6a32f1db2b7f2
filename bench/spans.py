"""Span tracing of pcsub's public functions, installed from outside the package.

``Tracer.install`` replaces every public function and public method defined
in the traced modules by a wrapper, in each place a caller looks the name
up: the module namespaces that bind it (``pcsub.network.core_tick``,
``pcsub.core.stage_pred``, ``pcsub.harness.evaluate_dataset``, ...) and the
class that defines a method (``Network.tick``, ``Prng.fill_uniform``).
Nothing inside the package is edited. ``uninstall`` puts the originals back.

Each call records a span (id, parent id, name, start, end). Spans are kept in
memory, up to ``MAX_SPANS`` of them by entry order (a parent always enters
before its children, so every stored span's parent is stored too), and are
written out by ``dump`` when the run ends. Call counts, inclusive time and
self time (inclusive time minus the time of the wrapped calls made inside
it) are kept for every call, stored or not.

A name that drops to zero calls after a change did not necessarily lose its
work: code that stops calling a wrapped function (for example the per-core
``core.*`` stages once a dense engine ticks whole layers) moves that time into
the caller's ``self_s``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path

from hostclock import work_ns

MODULES = (
    "cli", "config", "prng", "checkpoint", "harness",
    "network", "core", "scalar32", "oracle",
)
MAX_SPANS = 200_000


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list = []
        self.ids: dict = {}
        self.calls: list = []
        self.total_ns: list = []
        self.self_ns: list = []
        self.active: list = []  # per name: number of open spans
        self.stack: list = []  # open spans: [span id, child ns]
        self.next_id = 0
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        # name -> fn(args, kwargs, result, dur_ns), called after each
        # successful call; register before ``install``
        self.hooks: dict = {}
        self._patches: list = []

    # -- bookkeeping ---------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            for col in (self.calls, self.total_ns, self.self_ns, self.active):
                col.append(0)
        return self.ids[name]

    def stat(self, name: str):
        """(calls, inclusive s, self s) of one traced name; zeros if unseen."""
        i = self.ids.get(name)
        if i is None:
            return 0, 0.0, 0.0
        return self.calls[i], self.total_ns[i] * 1e-9, self.self_ns[i] * 1e-9

    def is_open(self, name: str) -> bool:
        i = self.ids.get(name)
        return i is not None and self.active[i] > 0

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self
        stack, active = self.stack, self.active
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns
        perf = work_ns  # excludes the HostClock reference chunks
        sid_col, par_col, name_col = self.span_id, self.span_parent, self.span_name
        start_col, end_col = self.span_start, self.span_end
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            active[nid] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                active[nid] -= 1
                dur = t1 - t0
                calls[nid] += 1
                total_ns[nid] += dur
                self_ns[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if sid < MAX_SPANS:
                    sid_col.append(sid)
                    par_col.append(parent)
                    name_col.append(nid)
                    start_col.append(t0)
                    end_col.append(t1)
            if hook is not None:
                hook(args, kwargs, result, dur)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = self.package
        prefix = pkg.__name__ + "."
        wrappers: dict = {}  # id(original function) -> wrapper
        for short in MODULES:
            mod = sys.modules[prefix + short]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(f"{short}.{obj.__qualname__}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(short, obj)
        namespaces = [pkg] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)
        ]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    self._patch(ns, attr, wrappers[id(obj)])

    def _wrap_methods(self, short: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                fn = member.__func__
                wrapped = type(member)(self._wrap(f"{short}.{fn.__qualname__}", fn))
            elif inspect.isfunction(member):
                wrapped = self._wrap(f"{short}.{member.__qualname__}", member)
            else:
                continue
            self._patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def table(self) -> dict:
        return {
            name: {"calls": c, "s": t * 1e-9, "self_s": s * 1e-9}
            for name, c, t, s in zip(self.names, self.calls, self.total_ns, self.self_ns)
            if c
        }

    def dump(self, path: Path) -> None:
        """Write a JSON header line, then one ``id parent name start_ns end_ns``
        line per stored span (parent -1 for a root span)."""
        header = {
            "names": self.names,
            "spans_stored": len(self.span_id),
            "spans_dropped": max(0, self.next_id - MAX_SPANS),
            "functions": self.table(),
        }
        names = self.names
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(header) + "\n")
            fh.writelines(
                f"{i} {p} {names[n]} {a} {b}\n"
                for i, p, n, a, b in zip(
                    self.span_id, self.span_parent, self.span_name,
                    self.span_start, self.span_end,
                )
            )
