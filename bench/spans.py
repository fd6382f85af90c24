"""Span tracer for the traced benchmark run.

The tracer replaces the public functions of the cuffdim layer modules with
wrappers that record one span (name, start, end, parent) per call.  A
function is patched under every name a caller resolves it by: its home
module, every module that rebound it with ``from .x import y``, the package
namespace, and module-level dicts that hold it (such as ``FAMILIES``).
Spans stay in memory until the run writes them out.  Nothing under ``src/``
is edited; ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import weakref
from dataclasses import dataclass, field

LAYERS = ("hyperbolic", "pants", "symbolic", "thermo", "projlab", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    attrs: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


class _CoverHits:
    """A cylinder_cover result is a hit when the same object was already
    returned for the same geometry and depth."""

    def __init__(self):
        self.seen = weakref.WeakKeyDictionary()

    def __call__(self, args, kwargs, result):
        p = args[0]
        n = args[1] if len(args) > 1 else kwargs["n"]
        per_geometry = self.seen.setdefault(p, {})
        hit = per_geometry.get(n) == id(result)
        per_geometry[n] = id(result)
        return {"hit": hit}


def _delta_attrs(args, kwargs, r):
    return {"converged": bool(r.converged), "depth_used": int(r.depth_used)}


def _project_attrs(args, kwargs, r):
    cover = args[0] if args else kwargs["cover"]
    return {"boxes": int(cover.n_boxes)}


def _product_attrs(args, kwargs, r):
    arrays = [r.x0, r.x1, r.y0, r.y1] + list(r.tags or ()) + (
        [r.masses] if r.masses is not None else []
    )
    return {"boxes": int(r.n_boxes), "bytes": int(sum(a.nbytes for a in arrays))}


def _sampler_attrs(args, kwargs, r):
    return {"attempts": int(r.attempts), "points": int(len(r.points))}


def default_observers() -> dict:
    """Per-function result observers whose attributes feed ratio metrics."""
    return {
        "thermo.hausdorff_delta": _delta_attrs,
        "symbolic.cylinder_cover": _CoverHits(),
        "projlab.project_cover_length": _project_attrs,
        "projlab.product_cover": _product_attrs,
        "projlab.sample_complete_geodesic_points": _sampler_attrs,
    }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.observers = default_observers()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._dict_patched: list[tuple[dict, object, object]] = []

    def wrap(self, fn, name: str):
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.attrs = observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> int:
        """Patch every public function of the layer modules; returns the count."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cuffdim.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    originals[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "cuffdim" or n.startswith("cuffdim."))
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, originals[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in originals and originals[id(val)][0] is val:
                            self._dict_patched.append((obj, key, val))
                            obj[key] = originals[id(val)][1]
        return len(originals)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        for d, key, val in reversed(self._dict_patched):
            d[key] = val
        self._patched.clear()
        self._dict_patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "attrs": s.attrs}
                ) + "\n")


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    j = spans[i].parent
    while j >= 0:
        if spans[j].name == name:
            return True
        j = spans[j].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts, self times and ratios from one traced pass.

    Every name is present; a layer the workload never called reads 0.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[i]
        by_name.setdefault(s.name, []).append(i)

    def attr_sum(name, key):
        return sum(spans[i].attrs.get(key, 0) for i in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in (
        "thermo.pressure", "thermo.transfer_matrix", "thermo.pressure_root",
        "thermo.hausdorff_delta", "symbolic.cylinder_cover",
        "symbolic.cutting_sequence_trace", "pants.build_pants",
        "hyperbolic.clip_chord", "projlab.project_cover_length",
        "projlab.product_cover",
    ):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in (
        "thermo.pressure", "thermo.transfer_matrix", "thermo.transition_skeleton",
        "thermo.pressure_root", "thermo.hausdorff_delta", "thermo.gibbs_chain",
        "thermo.gibbs_measure", "symbolic.cylinder_cover",
        "symbolic.cutting_sequence_trace", "pants.build_pants",
        "pants.validate_pants", "hyperbolic.clip_chord", "hyperbolic.lift_light",
        "projlab.project_cover_length", "projlab.product_cover",
        "projlab.sample_complete_geodesic_points", "projlab.box_dimension",
        "projlab.transversality_certify",
    ):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)

    in_root = sum(
        1 for i in by_name.get("thermo.pressure", ())
        if _has_ancestor(spans, i, "thermo.pressure_root")
    )
    m["thermo.pressure.per_root"] = ratio(in_root, calls.get("thermo.pressure_root", 0))
    n_delta = calls.get("thermo.hausdorff_delta", 0)
    m["thermo.hausdorff_delta.converged_frac"] = ratio(
        attr_sum("thermo.hausdorff_delta", "converged"), n_delta)
    m["thermo.hausdorff_delta.depth_used_mean"] = ratio(
        attr_sum("thermo.hausdorff_delta", "depth_used"), n_delta)
    m["symbolic.cylinder_cover.hit_frac"] = ratio(
        attr_sum("symbolic.cylinder_cover", "hit"), calls.get("symbolic.cylinder_cover", 0))
    m["projlab.project_cover_length.boxes_per_s"] = ratio(
        attr_sum("projlab.project_cover_length", "boxes"),
        self_s.get("projlab.project_cover_length", 0.0))
    m["projlab.product_cover.boxes"] = attr_sum("projlab.product_cover", "boxes")
    m["projlab.product_cover.bytes_computed"] = attr_sum("projlab.product_cover", "bytes")
    m["projlab.sample_complete_geodesic_points.attempts_per_point"] = ratio(
        attr_sum("projlab.sample_complete_geodesic_points", "attempts"),
        attr_sum("projlab.sample_complete_geodesic_points", "points"))
    return m
