"""Per-layer metrics computed from one traced pass.

Every `*_s` metric taken from spans is self time: the spans' duration minus
the time covered by their child spans, so span metrics add up without
double counting. `symexpr.compile_s`, `symexpr.eval_s` and `schemes.rhs_s`
are totals of hot callables that have no spans; they overlap the self time
of the span that called them. A metric reads 0 where its layer was not
used.
"""

from __future__ import annotations

from collections import defaultdict

# (metric, unit, better, source): source is ("span_s" | "span_calls", span name),
# ("calls" | "seconds" | "values", counter name), or ("run", key).
PER_LAYER = [
    ("symexpr.compile_hits", "count", "lower", ("calls", "symexpr.compile_hits")),
    ("symexpr.compile_misses", "count", "lower", ("calls", "symexpr.compile_misses")),
    ("symexpr.compile_s", "s", "lower", ("seconds", "symexpr.compile")),
    ("symexpr.eval_calls", "count", "lower", ("calls", "symexpr.eval")),
    ("symexpr.eval_s", "s", "lower", ("seconds", "symexpr.eval")),
    ("symexpr.scan_calls", "count", "lower", ("span_calls", "symexpr.scan")),
    ("symexpr.scan_s", "s", "lower", ("span_s", "symexpr.scan")),
    ("symexpr.g_nodes", "count", "lower", ("values", "symexpr.g_nodes")),
    ("fourieralg.exp_operator_calls", "count", "lower",
     ("span_calls", "fourieralg.exp_operator")),
    ("fourieralg.exp_operator_s", "s", "lower", ("span_s", "fourieralg.exp_operator")),
    ("fourieralg.lie_bracket_calls", "count", "lower",
     ("span_calls", "fourieralg.lie_bracket")),
    ("fourieralg.lie_bracket_s", "s", "lower", ("span_s", "fourieralg.lie_bracket")),
    ("fourieralg.build_calls", "count", "lower", ("span_calls", "fourieralg.build")),
    ("fourieralg.build_s", "s", "lower", ("span_s", "fourieralg.build")),
    ("fourieralg.field_eval_calls", "count", "lower", ("calls", "fourieralg.field_eval")),
    ("fourieralg.max_harmonic", "count", "lower", ("values", "fourieralg.max_harmonic")),
    ("averaging.average_calls", "count", "lower", ("span_calls", "averaging.average")),
    ("averaging.average_s", "s", "lower", ("span_s", "averaging.average")),
    ("averaging.terms", "count", "lower", ("values", "averaging.terms")),
    ("averaging.residual_s", "s", "lower", ("span_s", "averaging.residual")),
    ("averaging.transform_s", "s", "lower", ("span_s", "averaging.transform")),
    ("contraction.ledger_calls", "count", "lower", ("span_calls", "contraction.ledger")),
    ("contraction.ledger_s", "s", "lower", ("span_s", "contraction.ledger")),
    ("metaopt.tables_s", "s", "lower", ("span_s", "metaopt.tables")),
    ("metaopt.solve_s", "s", "lower", ("span_s", "metaopt.solve")),
    ("metaopt.filtered_s", "s", "lower", ("span_s", "metaopt.filtered")),
    ("metaopt.consistency_s", "s", "lower", ("span_s", "metaopt.consistency")),
    ("metaopt.solve_alloc_peak_mb", "MB", "lower", ("values", "metaopt.solve_alloc_peak_mb")),
    ("metaopt.budget_over_tolerance", "count", "lower", ("run", "budget_over_tolerance")),
    ("schemes.graded_field_s", "s", "lower", ("span_s", "schemes.graded_field")),
    ("schemes.reference_s", "s", "lower", ("span_s", "schemes.reference")),
    ("schemes.rhs_calls", "count", "lower", ("calls", "schemes.rhs")),
    ("schemes.rhs_s", "s", "lower", ("seconds", "schemes.rhs")),
    ("sim.integrate_calls", "count", "lower", ("span_calls", "sim.integrate")),
    ("sim.integrate_s", "s", "lower", ("span_s", "sim.integrate")),
    ("sim.steps", "count", "higher", ("calls", "sim.steps")),
    ("sim.compare_s", "s", "lower", ("span_s", "sim.compare")),
    ("sim.write_csv_s", "s", "lower", ("span_s", "sim.write_csv")),
    ("sim.csv_bytes", "bytes", "lower", ("calls", "sim.csv_bytes")),
    ("sim.perfmap_s", "s", "lower", ("span_s", "sim.perfmap")),
    ("sim.cells", "count", "higher", ("calls", "sim.cells")),
    ("sim.escaped_cells", "count", "lower", ("calls", "sim.escaped_cells")),
    ("cli.config_s", "s", "lower", ("span_s", "cli.config")),
    ("cli.self_s", "s", "lower", ("span_s", "cli")),
    ("trace.wall_s", "s", "lower", ("run", "wall")),
    ("trace.overhead_s", "s", "lower", ("run", "overhead")),
]


def span_totals(spans) -> tuple:
    """Per span name: (calls, self seconds)."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for (name, _, t0, t1), covered in zip(spans, child):
        calls[name] += 1
        self_s[name] += (t1 - t0) - covered
    return calls, self_s


def per_layer(trace: dict, wall: float, untraced_wall: float,
              budget_over_tolerance: int) -> dict:
    span_calls, span_s = span_totals(trace["spans"])
    sources = {
        "span_calls": span_calls, "span_s": span_s,
        "calls": trace["calls"], "seconds": trace["seconds"], "values": trace["values"],
        "run": {"wall": wall, "overhead": wall - untraced_wall,
                "budget_over_tolerance": budget_over_tolerance},
    }
    return {metric: {"value": sources[kind].get(key, 0), "unit": unit}
            for metric, unit, _, (kind, key) in PER_LAYER}
