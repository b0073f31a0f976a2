"""Outside-in layer trace for the manin_toric package.

The tracer replaces every public function of every package module, in
every package namespace that binds it (so ``from .x import y`` names
are covered too), plus the public ``DirichletOracle`` methods, with a
timing wrapper.  Each call is a span; a span's self time is its
duration minus the time of the wrapped calls it made, so the self
times of all spans add up to the time of the outermost spans.  Work
the engines do not report themselves (points enumerated, sieve sizes,
zeta terms) is read off call arguments and results.

The program's source is left untouched: ``install`` patches attributes
at run time and ``uninstall`` restores them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "manin_toric"

# classes whose public methods are traced, by module short name
TRACED_METHODS = {"tauberian": {"DirichletOracle": ("evaluate",
                                                    "evaluate_line",
                                                    "coefficients",
                                                    "phi_direct")}}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _zeta_line_terms(args, kwargs):
    # the Euler-Maclaurin cutoff of fourier.zeta_line: N = max(64,
    # max|Im s| + 16) terms for each node
    s = np.atleast_1d(np.asarray(_arg(args, kwargs, 0, "s"), dtype=complex))
    if s.size == 0:
        return 0
    return int(s.size) * max(64, int(float(np.max(np.abs(s.imag)))) + 16)


class Tracer:
    """Span and work accounting for one traced pass."""

    def __init__(self):
        self.calls = defaultdict(int)       # (module, function) -> calls
        self.self_s = defaultdict(float)    # (module, function) -> seconds
        self.incl_s = defaultdict(float)    # same, children included
        self.work = defaultdict(int)        # counter name -> exact count
        self.count_spans = []               # (fan, B, threads, seconds)
        self._stack = []                    # child seconds of open spans
        self._patched = []                  # (owner, attr, original)

    # -- accounting --------------------------------------------------------

    def _span(self, key, fn, args, kwargs):
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._close(key, frame, dt)
        self._record(key, args, kwargs, result, dt)
        return result

    def _close(self, key, frame, dt):
        self._stack.pop()
        self.self_s[key] += dt - frame[0]
        self.incl_s[key] += dt
        if self._stack:
            self._stack[-1][0] += dt

    def _record(self, key, args, kwargs, result, dt):
        mod, name = key
        if mod == "counting":
            if name == "count_points":
                self.work["counting.points"] += int(result)
                fan = _arg(args, kwargs, 0, "fan")
                self.count_spans.append(
                    (fan.name, float(_arg(args, kwargs, 2, "B")),
                     int(_arg(args, kwargs, 3, "threads", 1) or 1), dt))
            elif name == "zeta_partial":
                self.work["counting.points"] += int(result.n_points)
        elif mod == "primes" and name == "primes_up_to":
            self.work["primes.sieved"] += max(0, int(_arg(args, kwargs, 0,
                                                          "n")))
        elif mod == "fourier" and name == "zeta_line":
            self.work["fourier.zeta_line.terms"] += _zeta_line_terms(args,
                                                                     kwargs)
        elif mod == "fibration" and name == "fibration_zeta_partial":
            self.work["fibration.points"] += int(result.n_points)

    def _wrap(self, key, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # a generator does its work while resumed: each resumption is
            # a span, and each yielded item of enumerate_bounded is a point
            per_item = key == ("counting", "enumerate_bounded")

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.calls[key] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = [0.0]
                    tracer._stack.append(frame)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(key, frame,
                                      time.perf_counter() - t0)
                    if per_item:
                        tracer.work["counting.points"] += 1
                    yield item
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.calls[key] += 1
                return tracer._span(key, fn, args, kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap the package's public functions wherever they are bound."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == PACKAGE
                                           or name.startswith(PACKAGE + "."))}
        wrappers = {}   # id(original) -> wrapper
        for name, mod in modules.items():
            short = name.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == name):
                    wrappers[id(obj)] = self._wrap((short, attr), obj)
            for cls_name, methods in TRACED_METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    orig = cls.__dict__[meth]
                    self._patched.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap((short, meth), orig))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def uninstall(self):
        """Restore every attribute ``install`` replaced."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def report(self):
        """Plain-data summary: per-function calls, self and inclusive time
        (inclusive time counts a recursive call once per level), per-module
        self time, exact work counters and the count_points spans."""
        modules = defaultdict(float)
        for (mod, _name), sec in self.self_s.items():
            modules[mod] += sec
        return {
            "functions": {f"{m}.{n}": {"calls": self.calls[(m, n)],
                                       "self_s": self.self_s[(m, n)],
                                       "incl_s": self.incl_s[(m, n)]}
                          for (m, n) in sorted(set(self.calls)
                                               | set(self.self_s))},
            "modules": dict(sorted(modules.items())),
            "work": dict(sorted(self.work.items())),
            "count_spans": list(self.count_spans),
        }
