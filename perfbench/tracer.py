"""Per-layer spans recorded from outside the program.

The tracer wraps every public function and every public method of the
qskew modules and rebinds each wrapper wherever the original is bound:
``herm_eig`` is imported by both ``qskew.spectra`` and ``qskew.hua``, and
``qskew.cli`` imports most names directly, so patching only the defining
module would miss those calls.  Nothing in ``src/`` changes.

A span is ``[name_index, start, end, parent_span, size]``.  Spans are kept
in memory while a round runs and folded into per-name totals afterwards.
Threads started inside the program (the search pool) have no span of
their own on their stack; their spans get the main thread's innermost open
span as parent, which is the call that started the pool.
"""

import functools
import inspect
import math
import threading
import time

from collections import defaultdict

LAYERS = ("quaternion", "qmatrix", "clinalg", "spectra", "hua", "skew",
          "dual", "matio", "cli")

# spans whose first argument's leading dimension is recorded, for the
# per-call n^3 normalisation of the eigensolver
SIZED = {"clinalg.herm_eig"}


def _public_callables(module):
    """(owner, attribute, function, rewrap, qualname) for each public callable
    defined in module: its functions and its classes' methods."""
    modname = module.__name__
    found = []
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != modname:
            continue
        if inspect.isfunction(obj):
            found.append((module, name, obj, None, name))
        elif inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    found.append((obj, attr, member.__func__, type(member),
                                  obj.__name__ + "." + attr))
                elif inspect.isfunction(member):
                    found.append((obj, attr, member, None,
                                  obj.__name__ + "." + attr))
    return found


class Tracer:
    """Install with ``install()``, run the program, ``uninstall()``, then
    ``take()`` the spans of that interval."""

    def __init__(self, package):
        self.names = []
        self.spans = []
        self._local = threading.local()
        self._main_stack = []
        self._bindings = []
        modules = [getattr(package, layer) for layer in LAYERS]
        holders = [package] + modules
        for layer, module in zip(LAYERS, modules):
            found = _public_callables(module)
            # methods are named module.method unless two classes of the
            # module share the method name
            short = defaultdict(int)
            for _, attr, _, _, _ in found:
                short[attr] += 1
            for owner, attr, fn, rewrap, qualname in found:
                label = layer + "." + (attr if short[attr] == 1 else qualname)
                wrapper = self._wrap(fn, label)
                if rewrap is not None:
                    self._bindings.append((owner, attr, vars(owner)[attr],
                                           rewrap(wrapper)))
                    continue
                self._bindings.append((owner, attr, fn, wrapper))
                if owner is not module:
                    continue
                for holder in holders:
                    for name, value in vars(holder).items():
                        if value is fn and holder is not module:
                            self._bindings.append((holder, name, fn, wrapper))

    def _wrap(self, fn, label):
        index = len(self.names)
        self.names.append(label)
        spans = self.spans
        local = self._local
        main = self._main_stack
        clock = time.perf_counter
        sized = label in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main[-1] if main else None)
            rec = [index, clock(), 0.0, parent,
                   len(args[0]) if sized and args else 0]
            spans.append(rec)
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def install(self):
        self._local.stack = self._main_stack
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)

    def take(self):
        spans, self.spans[:] = list(self.spans), []
        return spans

    def dump(self, spans):
        """Spans as plain rows [name, start, end, parent_index], times
        relative to the first span."""
        if not spans:
            return []
        pos = {id(rec): i for i, rec in enumerate(spans)}
        t0 = spans[0][1]
        return [[self.names[r[0]], r[1] - t0, r[2] - t0,
                 pos.get(id(r[3]), -1) if r[3] is not None else -1]
                for r in spans]

    def summarize(self, spans, totals):
        """Fold spans into totals[name] = {calls, busy_s, self_s, wait_s, n3}.

        busy_s is the wall time covered by at least one span of the name, so
        nested calls and calls overlapping in threads count once.  self_s
        is each span's duration minus the part its children cover.  wait_s
        is the children's time beyond that part: with threads under one
        interpreter lock, overlapping child spans mean a thread waited.
        """
        children = defaultdict(list)
        by_name = defaultdict(list)
        for rec in spans:
            by_name[rec[0]].append(rec)
            if rec[3] is not None:
                children[id(rec[3])].append(rec)
        for rec in spans:
            index, start, end, _, size = rec
            entry = totals[self.names[index]]
            kids = children.get(id(rec), ())
            covered = _covered(kids, start, end)
            entry["calls"] += 1
            entry["self_s"] += end - start - covered
            entry["wait_s"] += max(0.0, sum(k[2] - k[1] for k in kids) - covered)
            entry["n3"] += size ** 3
        for index, recs in by_name.items():
            totals[self.names[index]]["busy_s"] += _covered(recs, -math.inf, math.inf)


def _covered(spans, start, end):
    """Length of [start, end] covered by the union of the spans' intervals."""
    covered = 0.0
    cursor = start
    for rec in sorted(spans, key=lambda r: r[1]):
        lo, hi = max(rec[1], cursor), min(rec[2], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def new_totals():
    return defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                "wait_s": 0.0, "n3": 0})
