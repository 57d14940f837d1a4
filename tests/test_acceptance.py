"""Acceptance gate: ten end-to-end criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete; under default capture they appear in the captured-output section.
"""
import math
import time

import numpy as np
import pytest

from esgain.averaging import average, autonomy_residual
from esgain.contraction import build_ledger, plant_coupling_bound, robustness_tube
from esgain.metaopt import (MetaOptProblem, consistency_report, solve_numeric,
                            solve_strategy3_closed_form, tune_frequency)
from esgain.schemes import (SchemeInstance, plant_slow_rhs, reference_averaged,
                            scheme_graded_field, scheme_rhs)
from esgain.sim import convergence_time, integrate, performance_map
from esgain.symexpr import (Domain1D, compile_expr, differentiate, eval_expr,
                            parse_expr)

WORKED_H_TEXT = "-cos(x) + 0.16666666666666666*x^3"


def report(num: int, label: str, ok: bool, detail: str, t0: float) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {label}: {detail} "
          f"({time.perf_counter() - t0:.2f}s)")
    return ok


@pytest.fixture(scope="module")
def h():
    return parse_expr(WORKED_H_TEXT)


@pytest.fixture(scope="module")
def ledger(h):
    return build_ledger(h, Domain1D(-1.0, 1.0), x_star=0.0)


def test_criterion_1_closed_form_gains(ledger):
    t0 = time.perf_counter()
    sol = solve_strategy3_closed_form(ledger, 0.01, 0.01)
    a, eta, p = sol.gains["a"], sol.gains["eta"], sol.gains["p"]
    ok = (abs(eta - 0.01) <= 1e-6 and abs(a - 0.209) <= 0.003
          and abs(p - 1.09) <= 0.05)
    ok = report(1, "split-tolerance closed form", ok,
                f"a={a:.4f} eta={eta:.4f} p={p:.3f}", t0)
    assert ok


def test_criterion_2_numeric_first_pass(ledger, h):
    t0 = time.perf_counter()
    prob = MetaOptProblem(ledger, strategy=3, delta1=0.01, delta2=0.01)
    sol = solve_numeric(prob)
    a, eta = sol.gains["a"], sol.gains["eta"]
    rep = consistency_report(sol, h)
    ok = (abs(a - 0.207) <= 0.01 and abs(eta - 0.01) <= 0.001
          and abs(rep.p_value - 0.05) <= 0.01 and not rep.p_near_unity)
    ok = report(2, "equal-grading numeric pass flags small p", ok,
                f"a={a:.4f} eta={eta:.4f} p={rep.p_value:.3f} "
                f"flagged={not rep.p_near_unity}", t0)
    assert ok
    assert time.perf_counter() - t0 < 10.0


def test_criterion_3_frequency_tuning(ledger):
    t0 = time.perf_counter()
    tun = tune_frequency(ledger, a=0.209, eta=0.01)
    lit = tun.diagnostics["literal_stationary_omega"]
    ok = abs(tun.omega - 0.477) <= 0.005 and abs(lit - 0.239) <= 0.005
    ok = report(3, "dither-frequency tuner", ok,
                f"omega={tun.omega:.4f} literal={lit:.4f}", t0)
    assert ok


def test_criterion_4_filtered_convergence(h):
    t0 = time.perf_counter()
    s = SchemeInstance("filtered1d", h, a=0.33, eta=8.8e-3, mu=0.093, gamma=3.8)
    x0 = np.array([1.0, eval_expr(h, [1.0]), 0.0])
    period = 2.0 * math.pi
    traj = integrate(scheme_rhs(s), x0, T=400 * period, dt=period / 200.0)
    tc = convergence_time(traj, 0.0, 0.02)
    periods = tc / period
    ok = 50.0 <= periods <= 300.0
    ok = report(4, "filtered scheme settles in the tolerance band", ok,
                f"convergence at {periods:.1f} dither periods (band 0.02)", t0)
    assert ok
    assert time.perf_counter() - t0 < 30.0


def test_criterion_5_engine_matches_closed_forms(h):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0

    s = SchemeInstance("basic1d", h, a=0.7, eta=0.9)
    res = average(scheme_graded_field(s, 4), 4, convention="w-zero-mean")
    ref = reference_averaged(s)
    for deg in (2, 4):
        got = compile_expr(res.g_exprs(deg)[0])
        want = compile_expr(ref.degree_fields[deg][0])
        for y in rng.uniform(-1.0, 1.0, size=100):
            worst = max(worst, abs(got([y]) - want([y])))

    h2 = parse_expr("0.5*x1^2 + 0.5*x2^2 + 0.3*x1*x2^2", dim=2)
    sp = SchemeInstance("planar", h2, a=0.4, eta=0.3)
    resp = average(scheme_graded_field(sp, 2), 2, convention="w-zero-mean")
    refp = reference_averaged(sp)
    for _ in range(100):
        y = list(rng.uniform(-1.0, 1.0, size=2))
        for c in (0, 1):
            worst = max(worst, abs(eval_expr(resp.g_exprs(2)[c], y)
                                   - eval_expr(refp.degree_fields[2][c], y)))
    ok = worst <= 1e-9
    ok = report(5, "averaging engine vs hand-coded references", ok,
                f"worst deviation {worst:.2e} over descent + precession forms", t0)
    assert ok
    assert time.perf_counter() - t0 < 30.0


def test_criterion_6_remainder_order(h):
    t0 = time.perf_counter()
    exps = []
    ok = True
    for n in (1, 2, 3):
        s = SchemeInstance("basic1d", h, a=0.3, eta=0.3)
        f = scheme_graded_field(s, n)
        res = average(f, n)
        rep = autonomy_residual(f, res, [0.2, 0.1, 0.05], samples=40)
        exps.append(rep.exponent)
        ok = ok and abs(rep.exponent - (n + 1)) <= 0.3
    ok = report(6, "non-autonomous residual order n+1", ok,
                "exponents " + ", ".join(f"{e:.3f}" for e in exps), t0)
    assert ok
    assert time.perf_counter() - t0 < 60.0


def test_criterion_7_plant_coupling_bound(h, ledger):
    t0 = time.perf_counter()
    a, eta = 0.209, 0.01
    omega0 = tune_frequency(ledger, a, eta).omega
    details = []
    ok = True
    for omega in (omega0, 0.5 * omega0, 2.0 * omega0):
        s = SchemeInstance("plant1d", h, a=a, eta=eta, omega=omega)
        full_rhs = scheme_rhs(s)
        slow_rhs = plant_slow_rhs(s)
        T = 6.0 * 2.0 * math.pi / omega
        traj = integrate(full_rhs, np.array([0.8, 0.8]), T=T,
                         dt=2.0 * math.pi / (200.0 * omega))
        worst = 0.0
        for t, st in zip(traj.t, traj.states):
            worst = max(worst, abs(full_rhs(t, st)[1] - slow_rhs(t, st[1:2])[0]))
        bound = plant_coupling_bound(a, eta, omega, ledger.norm(0), ledger.norm(1))
        details.append(f"omega={omega:.3f} ratio={worst / bound:.2f}")
        ok = ok and worst <= 1.05 * bound
    ok = report(7, "slow-rate error within the coupling bound", ok,
                "; ".join(details), t0)
    assert ok
    assert time.perf_counter() - t0 < 30.0


def test_criterion_8_contraction_tube():
    t0 = time.perf_counter()
    details = []
    ok = True
    for r in (0.01, 0.1, 1.0):
        traj = integrate(lambda t, y, _r=r: -y + _r * math.sin(t),
                         np.array([0.0]), T=60.0, dt=0.01)
        tail = np.abs(traj.states[traj.t > 40.0, 0]).max()
        tube = robustness_tube(1.0, r)
        details.append(f"r={r}: |y|={tail:.4f} <= {tube}")
        ok = ok and tail <= tube and tube == r
    ok = report(8, "steady forced response stays inside |R|/kappa", ok,
                "; ".join(details), t0)
    assert ok
    assert time.perf_counter() - t0 < 5.0


def test_criterion_9_performance_map(h, ledger):
    t0 = time.perf_counter()
    a_grid = np.geomspace(0.02, 1.0, 20)
    p_grid = np.geomspace(0.1, 10.0, 20)
    pm = performance_map(h, a_grid, p_grid, horizon_periods=1000)

    sol = solve_strategy3_closed_form(ledger, 0.01, 0.01)
    tuned = performance_map(h, np.array([sol.gains["a"]]),
                            np.array([sol.gains["p"]]), horizon_periods=1000)
    tuned_ok = bool(tuned.feasible[0, 0]) and tuned.error[0, 0] <= 0.02
    good = pm.feasible & (pm.error <= 0.02)
    max_speed = float(pm.speed[good].max()) if good.any() else 0.0
    ratio = max_speed / tuned.speed[0, 0]
    ok = tuned_ok and ratio <= 3.0
    ok = report(9, "gain-plane map: tuned point near-optimal", ok,
                f"tuned error={tuned.error[0, 0]:.4f}, best good-cell speed "
                f"= {ratio:.2f}x tuned", t0)
    assert ok
    assert time.perf_counter() - t0 < 300.0


def test_criterion_10_representative_invariants(h, tmp_path):
    t0 = time.perf_counter()
    checks = {}

    # symbolic derivative agrees with a central difference
    h1 = compile_expr(differentiate(h))
    hf = compile_expr(h)
    fd = (hf([0.4 + 5e-6]) - hf([0.4 - 5e-6])) / 1e-5
    checks["derivative_vs_difference"] = abs(h1([0.4]) - fd) < 1e-8

    # default transform convention has zero-mean generators
    s = SchemeInstance("basic1d", h, a=0.3, eta=0.3)
    res = average(scheme_graded_field(s, 3), 3, convention="w-zero-mean")
    checks["zero_mean_generators"] = all(abs(term.time.c0) <= 1e-12
                                         for term in res.w.terms)

    # grading: odd averaged degrees vanish for sinusoidal dither
    res4 = average(scheme_graded_field(s, 4), 4)
    ys = np.linspace(-0.9, 0.9, 7)
    checks["odd_degrees_vanish"] = all(
        abs(eval_expr(e, [y])) < 1e-13
        for deg in (1, 3) for e in res4.g_exprs(deg) for y in ys)

    # deterministic map: identical inputs give byte-identical CSV
    grid_a, grid_p = np.geomspace(0.1, 0.4, 3), np.geomspace(0.5, 2.0, 3)
    f1, f2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    performance_map(h, grid_a, grid_p, horizon_periods=40).write_csv(f1)
    performance_map(h, grid_a, grid_p, horizon_periods=40).write_csv(f2)
    checks["map_determinism"] = f1.read_bytes() == f2.read_bytes()

    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    ok = report(10, "representative module invariants", ok,
                "all checks passed" if ok else f"failed: {failed}", t0)
    assert ok
    assert time.perf_counter() - t0 < 300.0
