"""Spans around the package's public functions and methods, recorded from
outside the package.

``Tracer.install`` rebinds each listed function, in every loaded
``betascenery`` module that holds it, and each listed method on its class,
to a wrapper that records a span (name, parent, start, end).  Spans stay in
memory until ``write`` puts them in a CSV file.  A name the package no
longer has is listed in ``absent`` and reads 0; the run goes on.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List

# span name -> (module, attribute); an attribute "Class.method" is a method
SPANS = {
    "algebraics.field_mul": ("betascenery.algebraics.algnum", "FieldElement.__mul__"),
    "algebraics.field_floor": ("betascenery.algebraics.algnum", "FieldElement.floor"),
    "algebraics.field_float": ("betascenery.algebraics.algnum", "FieldElement.__float__"),
    "algebraics.field_inverse": ("betascenery.algebraics.algnum", "FieldElement.inverse"),
    "algebraics.is_pisot": ("betascenery.algebraics.algnum", "is_pisot"),
    "algebraics.refine_complex_box": ("betascenery.algebraics.roots", "refine_complex_box"),
    "algebraics.multiplicative_relation": ("betascenery.algebraics.multiplicative",
                                           "multiplicative_relation"),
    "beta_numeration.normality_from_orbit": ("betascenery.beta_numeration",
                                             "normality_from_orbit"),
    "beta_numeration.parry_density": ("betascenery.beta_numeration", "parry_density"),
    "model.point_of_path": ("betascenery.model", "Model.point_of_path"),
    "model.sample_measure": ("betascenery.model", "Model.sample_measure"),
    "selfsimilar.sample_measure": ("betascenery.selfsimilar", "sample_measure"),
    "scenery.window_of_state": ("betascenery.scenery.windows", "window_of_state"),
    "scenery.scenery_orbit": ("betascenery.scenery.flow", "scenery_orbit"),
    "scenery.sample_Q": ("betascenery.scenery.flow", "sample_Q"),
    "scenery.compare_scenery_to_Q": ("betascenery.scenery.flow", "compare_scenery_to_Q"),
    "scenery.spectrum_obstruction": ("betascenery.scenery.spectrum", "spectrum_obstruction"),
}

# beta_orbit gets one span name per arithmetic path, and counts its digits
ORBIT = ("betascenery.beta_numeration", "beta_orbit")
ORBIT_PATHS = ("field", "integer", "rational", "interval")

# counted calls, no spans: these are too small and too many to time
COUNTS = {
    "scenery.symbol_lookups": [("betascenery.model", "OmegaWord.symbol"),
                               ("betascenery.scenery.flow", "InnerWord.symbol"),
                               ("betascenery.scenery.flow", "PrefixedWord.symbol")],
    "rng.scalar_draws": [("betascenery.rng", "UniformStream.__getitem__")],
}

# non-blank source lines: a package directory or a single module file
LINES = {
    "algebraics": "algebraics", "beta_numeration": "beta_numeration.py",
    "model": "model.py", "selfsimilar": "selfsimilar.py", "scenery": "scenery",
    "rng": "rng.py", "cli": "cli.py",
}


def _resolve(module: str, attr: str):
    """(owner, attribute name, original) or None when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *cls, name = attr.split(".")
    for c in cls:
        owner = getattr(owner, c, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(name) if cls else getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


class Tracer:
    def __init__(self):
        self.spans: List[list] = []       # [name, parent, start, end]
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.digits: Counter = Counter()
        self.absent: List[str] = []
        self._undo: List[tuple] = []

    # -- recording --------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1,
                           perf_counter(), None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][3] = perf_counter()
        self.stack.pop()

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return wrapper

    def _orbit_wrapper(self, fn):
        from betascenery.algebraics import BigReal

        @functools.wraps(fn)
        def wrapper(base, x, steps):
            if isinstance(x, BigReal):
                path = "interval"
            elif base.degree > 1:
                path = "field"
            elif base.is_integer:
                path = "integer"
            else:
                path = "rational"
            self.digits[path] += steps
            sid = self.open(f"beta_numeration.beta_orbit.{path}")
            try:
                return fn(base, x, steps)
            finally:
                self.close(sid)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing ----------------------------------------------------------------

    def _rebind(self, label: str, module: str, attr: str, make) -> None:
        found = _resolve(module, attr)
        if found is None:
            self.absent.append(f"{label} ({module}.{attr})")
            return
        owner, name, fn = found
        wrapper = make(fn)
        if isinstance(owner, type):
            # every alias on the class, e.g. __rmul__ = __mul__
            targets = [(owner, k) for k, v in list(owner.__dict__.items())
                       if v is fn]
        else:
            targets = [(mod, k) for mod in list(sys.modules.values())
                       if getattr(mod, "__name__", "").startswith("betascenery")
                       for k, v in list(vars(mod).items()) if v is fn]
        for obj, k in targets:
            self._undo.append((obj, k, fn))
            setattr(obj, k, wrapper)

    def install(self) -> None:
        for label, (module, attr) in SPANS.items():
            self._rebind(label, module, attr,
                         lambda fn, label=label: self._span_wrapper(label, fn))
        self._rebind("beta_numeration.beta_orbit", *ORBIT, self._orbit_wrapper)
        for label, places in COUNTS.items():
            for module, attr in places:
                self._rebind(label, module, attr,
                             lambda fn, label=label: self._count_wrapper(label, fn))

    def uninstall(self) -> None:
        for obj, k, fn in reversed(self._undo):
            setattr(obj, k, fn)
        self._undo.clear()

    # -- summaries ---------------------------------------------------------------------

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, busy seconds (outermost spans of the name
        only, so recursion is not counted twice) and self seconds (busy
        minus the time covered by wrapped children)."""
        child = defaultdict(float)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0,
                                                    "self_s": 0.0})
        for sid, (name, parent, t0, t1) in enumerate(self.spans):
            s = out[name]
            s["calls"] += 1
            s["self_s"] += t1 - t0 - child[sid]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                s["busy_s"] += t1 - t0
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span_id", "name", "parent", "start_s", "end_s"])
            for sid, (name, parent, t0, t1) in enumerate(self.spans):
                w.writerow([sid, name, parent, f"{t0:.9f}", f"{t1:.9f}"])


def source_lines(src: Path) -> Dict[str, int]:
    pkg = src / "betascenery"
    out = {}
    for label, rel in LINES.items():
        p = pkg / rel
        files = sorted(p.glob("*.py")) if p.is_dir() else [p]
        out[label] = sum(1 for f in files if f.is_file()
                         for line in f.read_text(encoding="utf-8").splitlines()
                         if line.strip())
    return out


# per-layer metrics read straight off a span name's calls or busy time
TOTALS = [
    ("algebraics.field_mul", "calls"), ("algebraics.field_mul", "busy_s"),
    ("algebraics.field_floor", "busy_s"), ("algebraics.field_float", "busy_s"),
    ("algebraics.field_inverse", "calls"), ("algebraics.is_pisot", "busy_s"),
    ("algebraics.refine_complex_box", "calls"),
    ("algebraics.refine_complex_box", "busy_s"),
    ("algebraics.multiplicative_relation", "busy_s"),
    ("beta_numeration.normality_from_orbit", "busy_s"),
    ("beta_numeration.parry_density", "busy_s"),
    ("model.point_of_path", "busy_s"), ("model.sample_measure", "busy_s"),
    ("selfsimilar.sample_measure", "busy_s"),
    ("scenery.window_of_state", "calls"), ("scenery.scenery_orbit", "busy_s"),
    ("scenery.sample_Q", "busy_s"), ("scenery.compare_scenery_to_Q", "busy_s"),
    ("scenery.spectrum_obstruction", "busy_s"),
]


def layer_metrics(tr: Tracer, rounds: int, src: Path) -> Dict[str, tuple]:
    """The per-layer metrics, per round of the workload: name -> (value,
    unit)."""
    s = tr.summary()

    def get(name, key):
        return s[name][key] / rounds if name in s else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    m: Dict[str, tuple] = {}
    for name, key in TOTALS:
        m[f"{name}.{key}"] = (get(name, key), "count" if key == "calls" else "s")
    for path in ORBIT_PATHS:
        busy = get(f"beta_numeration.beta_orbit.{path}", "busy_s")
        m[f"beta_numeration.orbit_digits_per_s.{path}"] = (
            ratio(tr.digits[path] / rounds, busy), "digits/s")
    windows = get("scenery.window_of_state", "calls")
    m["scenery.window_of_state.windows_per_s"] = (
        ratio(windows, get("scenery.window_of_state", "busy_s")), "windows/s")
    m["scenery.symbol_lookups_per_window"] = (
        ratio(tr.counts["scenery.symbol_lookups"] / rounds, windows), "count")
    m["rng.scalar_draws_per_window"] = (
        ratio(tr.counts["rng.scalar_draws"] / rounds, windows), "count")
    m["cli.self_s"] = (get("cli", "self_s"), "s")
    for label, n in source_lines(src).items():
        m[f"{label}.lines"] = (n, "lines")
    return m
