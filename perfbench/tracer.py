"""Span tracing from outside the program.

``Tracer.install`` wraps the public functions of the traced modules and
rebinds the wrapper at every import site: ``from .homology import
reduced_betti`` gives ``leray``, ``multiproj`` and ``icss`` their own names
for the function, so each module attribute that holds the original is
replaced.  Spans (name, start, end, parent, instance) stay in memory until
``write``; ``uninstall`` puts every original back.
"""
from __future__ import annotations

import functools
import inspect
import time

MARK = "__perfbench_wrapper__"


class Tracer:
    """Wraps functions, records spans and counters.

    ``spans`` holds tuples ``(name, start, end, parent, instance)`` where
    ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self, modules, sites, methods=(), count_only=(),
                 observers=None):
        self.modules = list(modules)       # modules whose functions are traced
        self.sites = list(sites)           # modules whose bindings are rebound
        self.methods = list(methods)       # (class, method name)
        self.count_only = set(count_only)  # "module.function": count, no span
        self.observers = dict(observers or {})
        self.spans = []
        self.counters = {}
        self.instance = -1
        self._stack = []
        self._patches = []                 # (owner, attribute, original)

    # -- recording ------------------------------------------------------

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), None, parent,
                           self.instance))
        self._stack.append(idx)
        return idx

    def end(self, idx):
        name, start, _, parent, inst = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, inst)
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("span %d ended out of order" % idx)

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _span_wrapper(self, fn, name):
        observer = self.observers.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            tracer.count(name + ".calls")
            if observer is not None:
                observer(tracer, args, kwargs, out)
            return out

        setattr(wrapper, MARK, True)
        return wrapper

    def _count_wrapper(self, fn, name):
        counters = self.counters
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    # -- installation ---------------------------------------------------

    def _wrap(self, fn, name):
        if name in self.count_only:
            return self._count_wrapper(fn, name)
        return self._span_wrapper(fn, name)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}                       # id(original) -> wrapper
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(obj, layer + "." + attr))
        for site in self.sites:
            for attr, obj in list(vars(site).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((site, attr, obj))
                    setattr(site, attr, hit[1])
        for cls, attr in self.methods:
            original = cls.__dict__[attr]
            layer = cls.__module__.rsplit(".", 1)[-1]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(
                original, "%s.%s.%s" % (layer, cls.__name__, attr)))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def leftover_wrappers(self):
        """Names still bound to a wrapper in any site or traced class."""
        out = []
        owners = list(self.sites) + [cls for cls, _ in self.methods]
        for owner in owners:
            for attr, obj in vars(owner).items():
                if getattr(obj, MARK, False):
                    out.append("%s.%s" % (getattr(owner, "__name__", owner),
                                          attr))
        return out

    # -- output -----------------------------------------------------------

    def write(self, path):
        """Spans as tab-separated lines: index, name, start, end, parent,
        instance (times in seconds from the first span)."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\tinstance\n")
            for i, (name, start, end, parent, inst) in enumerate(self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (i, name, start - base, end - base, parent, inst))


def self_times(spans):
    """Per span: its duration minus the durations of its direct children.

    Spans nest properly in one thread, so children never overlap and their
    summed durations are exactly the part of the parent they cover.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
