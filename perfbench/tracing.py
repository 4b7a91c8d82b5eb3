"""Spans around the calls into the program's layers, recorded from outside.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper, also where another module imported it by value (such as
``control.spectral_radius``), and wraps ``Graph.__init__``.  A wrapper
records one span (id, name, start, end, parent id, run id) and, for the
functions named in ``extract``, one value computed from the call.  Spans
stay in memory until the benchmark reads them.  ``uninstall`` puts every
original back.

Generator functions are left alone: a span around one would close before
the caller consumed it.
"""

from __future__ import annotations

import inspect
import itertools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, extract=None):
        self.extract = extract or {}
        self.spans = []  # (id, name, start, end, parent, run)
        self.extracted = defaultdict(list)  # (run, name) -> values
        self.run = None
        self._ids = itertools.count()
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        tracer = self
        extractor = self.extract.get(name)

        def traced(*args, **kwargs):
            span_id = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, tracer.run))
            if extractor is not None:
                tracer.extracted[(tracer.run, name)].append(extractor(args, result))
            return result

        return traced

    def install(self, modules, also_patch=(), classes=()):
        """Wrap the public functions defined in ``modules``; patch the same
        function objects wherever ``modules`` or ``also_patch`` hold them;
        wrap ``__init__`` of each class in ``classes``."""
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in (*modules, *also_patch):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for cls in classes:
            short = cls.__module__.rsplit(".", 1)[-1]
            original = cls.__init__
            self._patched.append((cls, "__init__", original))
            cls.__init__ = self._wrap(f"{short}.{cls.__name__}", original)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def root(self, name, fn, *args):
        """Call ``fn`` as the root span ``name`` of the current run."""
        return self._wrap(name, fn)(*args)


def summarize(spans):
    """Per-span derived values for a list of spans of one or more runs.

    Returns four dicts.  Keyed by span name: ``inclusive`` (time of the
    spans with no ancestor of the same name, so recursion is not counted
    twice), ``calls`` and ``self_time`` (span minus its direct children).
    Keyed by (root name, span name): ``under``, the inclusive time of spans
    below each root.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for sid, name, start, end, parent, run in spans:
        if parent is not None:
            child_time[parent] += end - start
    inclusive, calls, self_time = defaultdict(float), defaultdict(int), defaultdict(float)
    under = defaultdict(float)
    for sid, name, start, end, parent, run in spans:
        duration = end - start
        calls[name] += 1
        self_time[name] += duration - child_time[sid]
        repeated, root = False, sid
        p = parent
        while p is not None:
            ancestor = by_id[p]
            repeated = repeated or ancestor[1] == name
            root, p = p, ancestor[4]
        if not repeated:
            inclusive[name] += duration
            if root != sid:
                under[(by_id[root][1], name)] += duration
    return inclusive, calls, self_time, under
