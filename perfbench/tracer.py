"""Per-layer spans and counters for the symcone benchmark.

The tracer wraps public entry points of the package's modules from the
outside (nothing under ``src/`` is touched) while it is installed, and
keeps every span in memory.  A layer's *self time* is its span time minus
the time of spans it directly encloses.  Time spent in the leaf helpers
``blends`` and ``geometry`` is not split out: it lands in the span that
called them (mostly ``exprs`` and ``domains``).

A span entered directly inside a span of the same name is folded into it,
so ``capacity_of_hamiltonian`` calling ``capacity_interval`` counts as one
``capacity`` call.
"""
import contextlib
import functools
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional


class _Stat:
    __slots__ = ("calls", "self_s", "total_s", "counts", "sizes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.counts = Counter()
        self.sizes = Counter()  # calls by rows per call

    def median_rows(self) -> float:
        """Rows per call, median over calls (0 without calls)."""
        seen, half = 0, self.calls / 2.0
        for rows, calls in sorted(self.sizes.items()):
            seen += calls
            if seen >= half:
                return float(rows)
        return 0.0


class _Frame:
    __slots__ = ("name", "child_s", "children")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.children = _NO_CHILDREN


_NO_CHILDREN = Counter()


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return int(shape[0]) if len(shape) > 1 else max(1, int(x.size))


def _steps(span: float, step: float) -> int:
    """Fixed-step count of the package's RK4 loops (their documented rule)."""
    return max(1, int(round(abs(span) / step)))


class Tracer:
    """Spans and counters for one traced pass; install with `installed()`."""

    def __init__(self):
        self.stats: Dict[str, _Stat] = {}
        self._stack: List[_Frame] = []

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable] = None) -> Callable:
        """`fn` timed as span `name`; `count(fn, args, kwargs, result, frame)`
        returns extra counter increments for the span."""
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            frame = _Frame(name)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - frame.child_s
                if stack:
                    parent = stack[-1]
                    parent.child_s += dt
                    if parent.children is _NO_CHILDREN:
                        parent.children = Counter()
                    parent.children[name] += 1
            if count is not None:
                counts = stat.counts
                for key, val in count(fn, args, kwargs, result, frame).items():
                    counts[key] += val
                    if key == "rows":
                        stat.sizes[val] += 1
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch the package's entry points for the duration of the block."""
        patches = []
        try:
            for owner, attr, name, count in _targets():
                original = getattr(owner, attr)
                if isinstance(owner, type):
                    holders = [owner]
                else:
                    # functions imported by name live on in other modules too
                    holders = [m for key, m in sys.modules.items()
                               if (key == "symcone" or key.startswith("symcone."))
                               and getattr(m, attr, None) is original]
                wrapped = self.wrap(name, original, count)
                for holder in holders:
                    setattr(holder, attr, wrapped)
                    patches.append((holder, attr, original))
            from symcone.exprs import ExpressionHamiltonian

            init = ExpressionHamiltonian.__init__
            ExpressionHamiltonian.__init__ = _instrumented_init(init, self.wrap)
            patches.append((ExpressionHamiltonian, "__init__", init))
            yield self
        finally:
            for holder, attr, original in reversed(patches):
                setattr(holder, attr, original)

    def _get(self, name):
        return self.stats.get(name) or _Stat()

    def counts(self) -> Dict[str, int]:
        """Every exact count (calls and counters) of the pass."""
        out = {}
        for name, st in sorted(self.stats.items()):
            out[f"{name}.calls"] = st.calls
            for key, val in sorted(st.counts.items()):
                out[f"{name}.{key}"] = int(val)
        return out

    def layer_metrics(self, wall_s: float) -> Dict[str, tuple]:
        """Per-layer metrics as name -> (value, unit)."""
        g = self._get

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        grad, ev = g("exprs.grad"), g("exprs.eval")
        flow, smap = g("contact.flow"), g("smoothing.map")
        pull, orbit = g("growth.pullback"), g("orbits.orbit")
        well, audit = g("domains.well_value"), g("domains.audit")
        dumps = g("jsonio.dumps")
        rk_stages = 4 * (flow.counts["steps"] + smap.counts["steps"])
        return {
            "exprs.grad.calls": (grad.calls, "count"),
            "exprs.grad.rows": (grad.counts["rows"], "count"),
            "exprs.grad.self_s": (grad.self_s, "s"),
            "exprs.grad.rows_per_call": (grad.median_rows(), "rows/call"),
            "exprs.grad_per_rk_stage": (ratio(flow.counts["grads"] + smap.counts["grads"],
                                              rk_stages), "ratio"),
            "exprs.eval.calls": (ev.calls, "count"),
            "exprs.eval.rows": (ev.counts["rows"], "count"),
            "exprs.eval.self_s": (ev.self_s, "s"),
            "contact.flow.calls": (flow.calls, "count"),
            "contact.flow.point_steps": (flow.counts["point_steps"], "count"),
            "contact.flow.self_s": (flow.self_s, "s"),
            "contact.flow.ns_per_point_step": (
                1e9 * ratio(flow.total_s, flow.counts["point_steps"]), "ns"),
            "contact.flow.time_share": (ratio(flow.total_s, wall_s), "ratio"),
            "smoothing.map.calls": (smap.calls, "count"),
            "smoothing.map.point_steps": (smap.counts["point_steps"], "count"),
            "smoothing.map.self_s": (smap.self_s, "s"),
            "smoothing.certify.self_s": (g("smoothing.certify").self_s, "s"),
            "smoothing.certify.total_s": (g("smoothing.certify").total_s, "s"),
            "smoothing.defect.self_s": (g("smoothing.defect").self_s, "s"),
            "smoothing.defect.total_s": (g("smoothing.defect").total_s, "s"),
            "growth.sup_ratio.calls": (g("growth.sup_ratio").calls, "count"),
            "growth.sup_ratio.self_s": (g("growth.sup_ratio").self_s, "s"),
            "growth.pullback.calls": (pull.calls, "count"),
            "growth.pullback.self_s": (pull.self_s, "s"),
            "growth.pullback.hit_ratio": (ratio(pull.counts["hits"], pull.calls), "ratio"),
            "orbits.labels": (g("orbits.label").calls, "count"),
            "orbits.orbit.calls": (orbit.calls, "count"),
            "orbits.orbit.self_s": (orbit.self_s, "s"),
            "orbits.orbit.time_share": (ratio(orbit.total_s, wall_s), "ratio"),
            "orbits.orbit_share": (ratio(orbit.calls, g("orbits.label").calls), "ratio"),
            "domains.well_value.calls": (well.calls, "count"),
            "domains.well_value.rows_per_call": (well.median_rows(), "rows/call"),
            "domains.well_value.self_s": (well.self_s, "s"),
            "domains.audit.calls": (audit.calls, "count"),
            "domains.audit.samples": (audit.counts["samples"], "count"),
            "domains.audit.self_s": (audit.self_s, "s"),
            "domains.audit.accept_ratio": (ratio(audit.counts["accepted"],
                                                 audit.counts["samples"]), "ratio"),
            "sampling.rows": (g("sampling").counts["rows"], "count"),
            "sampling.self_s": (g("sampling").self_s, "s"),
            "capacity.calls": (g("capacity").calls, "count"),
            "capacity.self_s": (g("capacity").self_s, "s"),
            "jsonio.dumps.calls": (dumps.calls, "count"),
            "jsonio.dumps.bytes": (dumps.counts["bytes"], "count"),
            "jsonio.dumps.self_s": (dumps.self_s, "s"),
            "cli.self_s": (g("cli").self_s, "s"),
        }


# -- what gets wrapped -------------------------------------------------------

def _arguments(fn, args, kwargs) -> dict:
    """Every argument of the call by name, defaults included."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _rows_of(index):
    def count(fn, args, kwargs, result, frame):
        return {"rows": _rows(args[index])}
    return count


def _count_rows_result(fn, args, kwargs, result, frame):
    return {"rows": _rows(result)}


def _count_flow(fn, args, kwargs, result, frame):
    a = _arguments(fn, args, kwargs)
    steps = _steps(a["t_to"] - a["t_from"], a["self"].step)
    return {"steps": steps, "point_steps": steps * _rows(a["thetas"]),
            "grads": frame.children["exprs.grad"]}


def _count_map(fn, args, kwargs, result, frame):
    a = _arguments(fn, args, kwargs)
    steps = _steps(a["t_final"], a["self"].step)
    return {"steps": steps, "point_steps": steps * _rows(a["zs"]),
            "grads": frame.children["exprs.grad"]}


def _count_pullback(fn, args, kwargs, result, frame):
    return {"hits": int(frame.children["contact.flow"] == 0)}


def _count_audit(fn, args, kwargs, result, frame):
    return {"samples": int(_arguments(fn, args, kwargs)["samples"]),
            "accepted": result.samples_outer}


def _count_bytes(fn, args, kwargs, result, frame):
    return {"bytes": len(result.encode("utf-8"))}


def _targets():
    """(owner, attribute, span name, counter) for every wrapped entry point.

    Classes are patched in place; a module function is also replaced in
    every package module that imported it by name.
    """
    from symcone import (capacity, cli, contact, domains, growth, jsonio,
                         orbits, sampling, smoothing)

    sm = smoothing.SmoothedSymplectization
    return [
        (cli, "main", "cli", None),
        (jsonio, "dumps_json", "jsonio.dumps", _count_bytes),
        (contact.ContactIsotopy, "flow_many", "contact.flow", _count_flow),
        (sm, "__init__", "smoothing.certify", None),
        (sm, "__call__", "smoothing.map", _count_map),
        (smoothing, "symplecticity_defect", "smoothing.defect", None),
        (growth.ConeFamily, "sup_ratio", "growth.sup_ratio", None),
        (growth.Conjugator, "pulled_back", "growth.pullback", _count_pullback),
        (orbits, "label_action_floor", "orbits.label", None),
        (orbits, "closed_orbit_at_energy", "orbits.orbit", None),
        (domains.SmoothedWell, "value", "domains.well_value", _rows_of(1)),
        (domains, "containment_audit", "domains.audit", _count_audit),
        (sampling, "sphere_points", "sampling", _count_rows_result),
        (sampling, "sphere_points_with_angle_ratio", "sampling", _count_rows_result),
        (sampling, "box_points", "sampling", _count_rows_result),
        (capacity, "capacity_hyperboloid", "capacity", None),
        (capacity, "capacity_interval", "capacity", None),
        (capacity, "capacity_of_hamiltonian", "capacity", None),
    ]


def _instrumented_init(original, wrap):
    """ExpressionHamiltonian.__init__ that wraps the instance's public value
    and gradient callables, which every other module calls."""

    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self.eval_fn = wrap("exprs.eval", self.eval_fn, _rows_of(0))
        self.grad_fn = wrap("exprs.grad", self.grad_fn, _rows_of(0))

    return __init__
