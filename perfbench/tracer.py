"""Runtime tracing of esgain's layers from outside the library.

`install()` replaces, in every loaded `esgain` module, the names that one
module imports from another (for example `esgain.cli.average` or
`esgain.metaopt.RemainderTables`) by wrappers that record a span per call:
(name, parent span, start, end). Spans stay in memory and are written out
once, at the end. A layer's self time is its spans' duration minus the part
covered by their child spans.

Hot callables (compiled expressions, scheme right-hand sides, graded-field
evaluation and `compile_expr` lookups) get no spans: they only add to a call
counter and a time total, so a call costs a counter update rather than a
span record. Their time overlaps the self time of the span that calls them.

tracemalloc runs only inside `solve_numeric`, and is paused while its
`RemainderTables` are built, so the symbolic work there is not slowed.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self._stack = []
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.values = defaultdict(float)

    # -- spans -----------------------------------------------------------
    def span(self, name, fn, after=None):
        """Wrap fn so each call records a span; `after(result)` may add
        counts once the span has closed."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return wrapper

    # -- hot callables ---------------------------------------------------
    def hot(self, name, fn):
        calls, seconds = self.calls, self.seconds

        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            seconds[name] += perf_counter() - t0
            calls[name] += 1
            return result
        return wrapper

    def compile_lookup(self, compile_expr):
        """Count cache hits and misses of `compile_expr` through its
        `cache_info()`, time the misses, and count every call of the
        compiled function it hands back."""
        info = compile_expr.cache_info
        calls, seconds = self.calls, self.seconds
        hot = self.hot
        last = [info().misses]

        def wrapper(e):
            t0 = perf_counter()
            fn = compile_expr(e)
            misses = info().misses
            if misses != last[0]:
                seconds["symexpr.compile"] += perf_counter() - t0
                calls["symexpr.compile_misses"] += misses - last[0]
                last[0] = misses
            else:
                calls["symexpr.compile_hits"] += 1
            return hot("symexpr.eval", fn)
        return wrapper

    # -- memory ----------------------------------------------------------
    def solve_with_alloc_peak(self, fn):
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peak = max(peak, values.pop("_paused_peak", 0.0))
                values["metaopt.solve_alloc_peak_mb"] = max(
                    values["metaopt.solve_alloc_peak_mb"], peak / 2.0 ** 20)
        return wrapper

    def without_tracemalloc(self, fn):
        values = self.values

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            values["_paused_peak"] = max(values["_paused_peak"],
                                         tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            try:
                return fn(*args, **kwargs)
            finally:
                tracemalloc.start()
        return wrapper

    # -- output ----------------------------------------------------------
    def dump(self) -> dict:
        return {"spans": self.spans, "calls": dict(self.calls),
                "seconds": dict(self.seconds), "values": dict(self.values)}


def _expr_nodes(e) -> int:
    n = 1
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        if isinstance(v, tuple):
            n += sum(_expr_nodes(c) for c in v)
        elif dataclasses.is_dataclass(v):
            n += _expr_nodes(v)
    return n


def _replace_everywhere(original, wrapper) -> None:
    """Rebind every `esgain.*` module attribute bound to `original`."""
    for name, mod in list(sys.modules.items()):
        if name == "esgain" or name.startswith("esgain."):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap esgain's layer boundaries; call after `import esgain.cli`."""
    import esgain.averaging as averaging
    import esgain.cli as cli
    import esgain.contraction as contraction
    import esgain.fourieralg as fourieralg
    import esgain.metaopt as metaopt
    import esgain.schemes as schemes
    import esgain.sim as sim
    import esgain.symexpr as symexpr

    calls, values = tracer.calls, tracer.values
    span = tracer.span

    def after_average(res):
        values["averaging.terms"] += sum(res.diagnostics["term_counts"].values())
        values["symexpr.g_nodes"] += sum(_expr_nodes(e) for comps in res.g for e in comps)
        harmonics = [t.time.max_harmonic for part in (res.w, *res.u) for t in part.terms]
        values["fourieralg.max_harmonic"] = max(values["fourieralg.max_harmonic"],
                                                max(harmonics, default=0))

    def after_integrate(traj):
        calls["sim.steps"] += traj.t.size - 1

    def after_perfmap(pm):
        calls["sim.cells"] += int(pm.feasible.size)
        calls["sim.escaped_cells"] += int((~pm.feasible).sum())

    def rhs_factory(name, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return tracer.hot(name, factory(*args, **kwargs))
        return wrapper

    def csv_writer(fn):
        def wrapper(self, path):
            fn(self, path)
            calls["sim.csv_bytes"] += os.path.getsize(path)
        return span("sim.write_csv", wrapper)

    wrapped = [
        (symexpr.compile_expr, tracer.compile_lookup(symexpr.compile_expr)),
        (symexpr.scan_supnorm, span("symexpr.scan", symexpr.scan_supnorm)),
        (fourieralg.exp_operator_apply,
         span("fourieralg.exp_operator", fourieralg.exp_operator_apply)),
        (fourieralg.lie_bracket, span("fourieralg.lie_bracket", fourieralg.lie_bracket)),
        (averaging.average, span("averaging.average", averaging.average, after_average)),
        (averaging.autonomy_residual,
         span("averaging.residual", averaging.autonomy_residual)),
        (averaging.transform_points,
         span("averaging.transform", averaging.transform_points)),
        (contraction.build_ledger, span("contraction.ledger", contraction.build_ledger)),
        (metaopt.RemainderTables,
         tracer.without_tracemalloc(span("metaopt.tables", metaopt.RemainderTables))),
        (metaopt.solve_numeric,
         tracer.solve_with_alloc_peak(span("metaopt.solve", metaopt.solve_numeric))),
        (metaopt.tune_filtered, span("metaopt.filtered", metaopt.tune_filtered)),
        (metaopt.consistency_report,
         span("metaopt.consistency", metaopt.consistency_report)),
        (schemes.scheme_graded_field,
         span("schemes.graded_field", schemes.scheme_graded_field)),
        (schemes.reference_averaged, span("schemes.reference", schemes.reference_averaged)),
        (schemes.scheme_rhs, rhs_factory("schemes.rhs", schemes.scheme_rhs)),
        (schemes.ideal_flow, rhs_factory("schemes.rhs", schemes.ideal_flow)),
        (sim.integrate, span("sim.integrate", sim.integrate, after_integrate)),
        (sim.compare, span("sim.compare", sim.compare)),
        (sim.performance_map, span("sim.perfmap", sim.performance_map, after_perfmap)),
    ]
    for original, wrapper in wrapped:
        _replace_everywhere(original, wrapper)

    build = fourieralg.GradedField.build.__func__
    fourieralg.GradedField.build = classmethod(span("fourieralg.build", build))
    fourieralg.GradedField.eval = tracer.hot("fourieralg.field_eval",
                                             fourieralg.GradedField.eval)
    sim.Trajectory.write_csv = csv_writer(sim.Trajectory.write_csv)
    sim.PerfMap.write_csv = csv_writer(sim.PerfMap.write_csv)
    load = cli.RunConfig.load.__func__
    cli.RunConfig.load = classmethod(span("cli.config", load))
    cli.main = span("cli", cli.main)
