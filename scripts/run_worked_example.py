#!/usr/bin/env python3
"""End-to-end demo on the objective h(x) = -cos(x) + x^3/6 over [-1, 1].

Walks the full workflow: sup-norm ledger, closed-form and numeric gain
selection with consistency checks, dither-frequency tuning for the
first-order-plant scheme, and a simulation of the filtered scheme timed
against its tolerance band.
"""
import math

import numpy as np

from esgain.contraction import build_ledger
from esgain.metaopt import (MetaOptProblem, consistency_report, solve_numeric,
                            solve_strategy3_closed_form, tune_filtered,
                            tune_frequency)
from esgain.schemes import SchemeInstance, scheme_rhs
from esgain.sim import convergence_time, integrate
from esgain.symexpr import Domain1D, eval_expr, parse_expr

H_TEXT = "-cos(x) + 0.16666666666666666*x^3"


def main() -> None:
    h = parse_expr(H_TEXT)
    ledger = build_ledger(h, Domain1D(-1.0, 1.0), x_star=0.0)
    print(f"objective: h(x) = {H_TEXT}")
    print(f"ledger norms |h^(i)|: "
          + ", ".join(f"{v:.4f}" for v in ledger.norms)
          + f"; kappa = {ledger.kappa:.4f}\n")

    # -- first pass: equal grading, numeric solver -------------------------
    prob = MetaOptProblem(ledger, strategy=3, delta1=0.01, delta2=0.01)
    sol1 = solve_numeric(prob)
    rep1 = consistency_report(sol1, h)
    print("numeric pass (equal grading):")
    print(f"  a = {sol1.gains['a']:.4f}, eta = {sol1.gains['eta']:.4f}, "
          f"p = {rep1.p_value:.4f}")
    print(f"  p near unity? {rep1.p_near_unity} -> "
          f"{'keep grading' if rep1.p_near_unity else 're-grade with a heavier eta power'}\n")

    # -- second pass: closed form under the heavier grading ----------------
    sol2 = solve_strategy3_closed_form(ledger, 0.01, 0.01)
    rep2 = consistency_report(sol2, h)
    print("closed form (amplitude-dominant grading):")
    print(f"  a = {sol2.gains['a']:.4f}, eta = {sol2.gains['eta']:.4f}, "
          f"p = {sol2.gains['p']:.4f}")
    print(f"  active constraints: {', '.join(sol2.active_constraints)}")
    print(f"  p near unity? {rep2.p_near_unity}; neglected/dominant term "
          f"ratio = {rep2.neglected_ratio:.4f}\n")

    # -- dither frequency for the first-order plant ------------------------
    tun = tune_frequency(ledger, sol2.gains["a"], sol2.gains["eta"])
    print("plant dither frequency:")
    print(f"  omega = {tun.omega:.4f} "
          f"(literal stationary point {tun.diagnostics['literal_stationary_omega']:.4f})\n")

    # -- filtered scheme: tuner + simulated convergence --------------------
    ft = tune_filtered(ledger, 0.01, 0.01)
    print("filtered-scheme tuner (documented reconstruction):")
    print("  gains:", {k: round(v, 5) for k, v in ft.gains.items()})
    gains = dict(a=0.33, eta=8.8e-3, mu=0.093, gamma=3.8)
    s3 = SchemeInstance("filtered1d", h, **gains)
    x0 = np.array([1.0, eval_expr(h, [1.0]), 0.0])
    period = 2.0 * math.pi
    traj = integrate(scheme_rhs(s3), x0, T=400 * period, dt=period / 200.0)
    tc = convergence_time(traj, 0.0, 0.02)
    print(f"filtered scheme at gains {gains}:")
    print(f"  |x| enters the 0.02 band after {tc / period:.1f} dither periods")


if __name__ == "__main__":
    main()
