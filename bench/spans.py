"""Spans around hahnlab's public functions, installed from outside the package.

Tracer.install() replaces, in every hahnlab module namespace that binds
it, each public function with a wrapper that records a span (name,
start, end, parent).  It does the same for the public methods and the
arithmetic operators (aliases such as __rmul__ included) of every class
defined in hahnlab, for the lru caches in front of the *_coeffs_exact
functions, for each entry of suites.SUITES, for the Gauss-Kronrod panel
kernel, and for the integrand and envelope closures handed to
integrate_line.  Spans live
in flat arrays in memory and are written out when the run ends; self time
is a span's duration less the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
import types
from array import array
from fractions import Fraction
from pathlib import Path

_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__",
              "__call__")
_EVAL_FUNCTIONS = ("jacobi_eval", "chahn_eval", "pasternack_eval")

GRAM = "orthogonality.chahn_gram"
INTEGRAND = "quadrature.integrand"
ENVELOPE = "quadrature.envelope"


def _short(qualified: str) -> str:
    return qualified[len("hahnlab."):] if qualified.startswith("hahnlab.") else qualified


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._wrappers: dict[int, object] = {}
        self.radii: list[float] = []
        self.coeff_products = 0

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, nid: int) -> int:
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _finish(self, i: int):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self._id(name)
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)
        return traced

    # -- wrappers that also count ------------------------------------------

    def _wrap_eval(self, fn, name: str, exact_types: tuple):
        """Span named by the kind of parameters the caller passed."""
        exact_id, float_id = self._id(name + "[exact]"), self._id(name + "[float]")
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(n, params, *rest, **kwargs):
            if hasattr(params, "is_exact"):
                exact = params.is_exact()
            else:
                exact = isinstance(params, exact_types)
            i = begin(exact_id if exact else float_id)
            try:
                return fn(n, params, *rest, **kwargs)
            finally:
                finish(i)
        return traced

    def _wrap_poly_mul(self, fn, name: str, poly_type):
        inner = self.wrap(fn, name)

        @functools.wraps(fn)
        def counted(a, b):
            if isinstance(b, poly_type) and b.coeffs:
                self.coeff_products += sum(1 for c in a.coeffs if c) * len(b.coeffs)
            return inner(a, b)
        return counted

    def _wrap_radius(self, fn, name: str):
        inner = self.wrap(fn, name)

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            z = inner(*args, **kwargs)
            self.radii.append(z)
            return z
        return recorded

    def _wrap_integrate_line(self, fn, name: str):
        inner = self.wrap(fn, name)

        @functools.wraps(fn)
        def traced(f, envelope, *rest, **kwargs):
            return inner(self.wrap(f, INTEGRAND), self.wrap(envelope, ENVELOPE),
                         *rest, **kwargs)
        return traced

    def _wrapper_for(self, fn):
        """One wrapper per function object, whichever namespace binds it."""
        hit = self._wrappers.get(id(fn))
        if hit is None:
            name = _short(f"{fn.__module__}.{fn.__qualname__}")
            if fn.__name__ in _EVAL_FUNCTIONS:
                exact = (int, Fraction, sys.modules["hahnlab.exact"].GaussianRational)
                hit = self._wrap_eval(fn, name, exact)
            elif fn.__name__ == "truncation_radius":
                hit = self._wrap_radius(fn, name)
            elif fn.__name__ == "integrate_line":
                hit = self._wrap_integrate_line(fn, name)
            else:
                hit = self.wrap(fn, name)
            self._wrappers[id(fn)] = hit
        return hit

    # -- installation ------------------------------------------------------

    def install(self):
        package = importlib.import_module("hahnlab")
        modules = [package] + [importlib.import_module(f"hahnlab.{info.name}")
                               for info in pkgutil.iter_modules(package.__path__)]
        classes = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not getattr(obj, "__module__", "").startswith("hahnlab"):
                    continue
                if isinstance(obj, types.FunctionType):
                    setattr(mod, attr, self._wrapper_for(obj))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    classes.append(obj)
        for cls in classes:
            self._install_methods(cls)
        self._install_private(sys.modules["hahnlab.polynomials"],
                              sys.modules["hahnlab.quadrature"],
                              sys.modules["hahnlab.suites"])

    def _install_methods(self, cls):
        poly_type = getattr(sys.modules["hahnlab.exact"], "ExactPoly")
        for attr, obj in list(vars(cls).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            name = _short(f"{cls.__module__}.{cls.__qualname__}.{attr}")
            if cls is poly_type and attr in ("__mul__", "__rmul__"):
                setattr(cls, attr, self._wrap_poly_mul(obj, name, poly_type))
            else:
                setattr(cls, attr, self.wrap(obj, name))

    def _install_private(self, polynomials, quadrature, suites):
        # the lru caches call the functions they were made from; rebuild them
        # (still empty: the run has not started) around the wrapped functions
        for attr, obj in list(vars(polynomials).items()):
            if hasattr(obj, "cache_parameters") and hasattr(obj, "__wrapped__"):
                maxsize = obj.cache_parameters()["maxsize"]
                setattr(polynomials, attr, functools.lru_cache(maxsize=maxsize)(
                    self._wrapper_for(obj.__wrapped__)))
        quadrature._gk15 = self.wrap(quadrature._gk15, "quadrature.panel")
        for key, fn in list(suites.SUITES.items()):
            suites.SUITES[key] = self.wrap(fn, f"suite.{key}")

    # -- results -----------------------------------------------------------

    def write(self, path: Path):
        """Names as JSON, then the four span arrays as raw int32/int64."""
        path.with_suffix(".names.json").write_text(json.dumps(self.names),
                                                    encoding="utf-8")
        with open(path, "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)

    def summary(self) -> dict:
        """Per span name: calls, self and inclusive seconds; plus the
        counts that need a span's ancestry or a recorded value."""
        names, parent, start, end = self.name, self.parent, self.start, self.end
        count = len(end)
        dur = [end[i] - start[i] for i in range(count)]
        own = list(dur)
        for i in range(count):
            p = parent[i]
            if p >= 0:
                own[p] -= dur[i]
        k = len(self.names)
        calls, self_ns, incl_ns = [0] * k, [0] * k, [0] * k
        for i in range(count):
            nid = names[i]
            calls[nid] += 1
            self_ns[nid] += own[i]
            incl_ns[nid] += dur[i]

        gram_id = self._ids.get(GRAM, -2)
        integrand_id = self._ids.get(INTEGRAND, -2)
        weight_id = self._ids.get("numerics.hahn_weight_log", -2)
        under = bytearray(count)
        gram_integrand = gram_weight = 0
        for i in range(count):
            p = parent[i]
            if p >= 0 and (under[p] or names[p] == gram_id):
                under[i] = 1
                nid = names[i]
                if nid == integrand_id:
                    gram_integrand += 1
                elif nid == weight_id and names[p] == integrand_id:
                    gram_weight += 1
        return {
            "spans": count,
            "by_name": {self.names[j]: {"calls": calls[j], "self_s": self_ns[j] * 1e-9,
                                        "wall_s": incl_ns[j] * 1e-9}
                        for j in range(k) if calls[j]},
            "gram_integrand_evals": gram_integrand,
            "gram_weight_evals": gram_weight,
            "poly_coeff_products": self.coeff_products,
            "truncation_radii": self.radii,
        }
