"""Per-layer tracing installed from outside the library.

Each boundary names a layer of ``cyclohecke`` and the public functions that
enter it.  While a :class:`Tracer` is active those functions are replaced by
wrappers that count calls and time spans; leaving the ``with`` block puts
every original object back.  Every binding of an original is replaced:
module-level functions in every ``cyclohecke`` and ``perfbench`` module that
holds them, so callers that bound them with ``from .x import f`` are traced
too, and methods under each name of their class, so aliases such as
``__radd__ = __add__`` are traced too.

Self time of a boundary is the time inside its spans minus the time inside
enclosed spans of other boundaries.  A call that enters a boundary already on
top of the span stack (``length`` calling ``bm_normal_form``, ``t_element``
calling ``word_product``) is counted as a call but opens no span of its own.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

# boundary -> [(module, class or None, attribute names)]
BOUNDARIES = {
    "rings.laurent": [("rings", "Laurent", ("__add__", "__sub__", "__mul__"))],
    "rings.frac": [("rings", "LaurentFrac",
                    ("__init__", "__add__", "__sub__", "__mul__", "inverse"))],
    "rings.frac_cancel": [("rings", None, ("laurent_try_divide",))],
    "hecke.mul": [("hecke", "HeckeElement", ("__mul__",))],
    "hecke.accumulate": [("hecke", "HeckeElement", ("__add__", "__sub__", "scale"))],
    "hecke.t_element": [("hecke", None, ("t_element", "word_product"))],
    "seminormal.idempotent": [("seminormal", "SeminormalData",
                               ("F", "F_lambda", "central_idempotent_via_symmetric"))],
    "seminormal.character": [("seminormal", "SeminormalData", ("character", "schur"))],
    "center.classpoly": [("center", "ClassPolynomials",
                          ("f_polys", "g_polys", "character_matrix", "commutator_basis"))],
    "center.subspace": [("center", None, ("commutator_subspace", "center"))],
    "linalg.solve": [("linalg", None, ("solve", "invert_matrix"))],
    "linalg.echelon": [("linalg", "SubspaceBasis", ("add", "reduce")),
                       ("linalg", None, ("nullspace",))],
    "linalg.contains": [("linalg", "SubspaceBasis", ("contains",))],
    "group.normal_form": [("group", None,
                           ("length", "bm_normal_form", "dc_normal_form", "enumerate_group",
                            "enumerate_classes", "conjugacy_invariant"))],
    "reduction.reduce": [("reduction", None, ("reduce_to_minimal",))],
    "reduction.verify": [("reduction", None, ("verify_certificate",))],
    "tableaux": [("tableaux", None,
                  ("standard_tableaux", "content_vector", "enumerate_multipartitions"))],
}

# extra counters: metric name -> (boundary, attribute, value added per result)
OBSERVERS = {
    "hecke.mul.out_terms": ("hecke.mul", "__mul__", lambda out: len(out.terms)),
    "rings.frac_cancel.hits": ("rings.frac_cancel", "laurent_try_divide",
                               lambda out: out is not None),
    "reduction.reduce.steps": ("reduction.reduce", "reduce_to_minimal",
                               lambda cert: len(cert.steps) + len(cert.tail)),
}

# per-layer metric name -> unit, in the order they are printed
LAYER_METRICS = {}
for _boundary in BOUNDARIES:
    LAYER_METRICS[f"{_boundary}.calls"] = "count"
    LAYER_METRICS[f"{_boundary}.self_s"] = "s"
LAYER_METRICS["hecke.mul.out_terms"] = "count"
LAYER_METRICS["rings.frac_cancel.hit_ratio"] = "ratio"
LAYER_METRICS["reduction.reduce.steps"] = "count"
LAYER_METRICS["trace.total_s"] = "s"
LAYER_METRICS["trace.overhead"] = "ratio"


def _caller_modules():
    """Every cyclohecke module, imported now so that none binds a wrapper by
    importing it for the first time while tracing is on, and every loaded
    benchmark module."""
    package = importlib.import_module("cyclohecke")
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"cyclohecke.{info.name}")
    return {name: mod for name, mod in list(sys.modules.items())
            if name.split(".")[0] in ("cyclohecke", "perfbench") and mod is not None}


def wrapped_targets():
    """[(owner, attribute, original, boundary)] for every replaced binding."""
    mods = _caller_modules()
    out = []
    for boundary, groups in BOUNDARIES.items():
        for module, cls_name, attrs in groups:
            home = mods[f"cyclohecke.{module}"]
            source = home if cls_name is None else getattr(home, cls_name)
            owners = mods.values() if cls_name is None else [source]
            for attr in attrs:
                original = source.__dict__[attr]
                for owner in owners:
                    for name, value in list(vars(owner).items()):
                        if value is original:
                            out.append((owner, name, original, boundary))
    return out


class Tracer:
    """Context manager that wraps every boundary for the duration of a block."""

    def __init__(self):
        self.calls = dict.fromkeys(BOUNDARIES, 0)
        self.self_s = dict.fromkeys(BOUNDARIES, 0.0)
        self.observed = dict.fromkeys(OBSERVERS, 0)
        self._stack = []          # frames [boundary, start, child seconds]
        self._installed = []

    def _wrap(self, fn, boundary, observe):
        calls, self_s, observed = self.calls, self.self_s, self.observed
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[boundary] += 1
            if stack and stack[-1][0] == boundary:
                out = fn(*args, **kwargs)
            else:
                frame = [boundary, clock(), 0.0]
                stack.append(frame)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    span = clock() - frame[1]
                    self_s[boundary] += span - frame[2]
                    if stack:
                        stack[-1][2] += span
            if observe is not None:
                observed[observe[0]] += observe[1](out)
            return out

        return wrapper

    def __enter__(self):
        observers = {(b, attr): (metric, fn)
                     for metric, (b, attr, fn) in OBSERVERS.items()}
        wrappers = {}
        try:
            for owner, name, original, boundary in wrapped_targets():
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    attr = getattr(original, "__name__", name)
                    wrapper = self._wrap(original, boundary,
                                         observers.get((boundary, attr)))
                    wrappers[id(original)] = wrapper
                setattr(owner, name, wrapper)
                self._installed.append((owner, name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    def metrics(self):
        """Per-layer metric values, without the ``trace.*`` totals."""
        out = {}
        for boundary in BOUNDARIES:
            out[f"{boundary}.calls"] = self.calls[boundary]
            out[f"{boundary}.self_s"] = self.self_s[boundary]
        out["hecke.mul.out_terms"] = self.observed["hecke.mul.out_terms"]
        attempts = self.calls["rings.frac_cancel"]
        hits = self.observed["rings.frac_cancel.hits"]
        out["rings.frac_cancel.hit_ratio"] = hits / attempts if attempts else 0.0
        out["reduction.reduce.steps"] = self.observed["reduction.reduce.steps"]
        return out
