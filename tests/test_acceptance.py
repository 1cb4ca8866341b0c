"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single line

    ACCEPTANCE <k> <label>: PASS|FAIL <detail>

so the whole gate can be read off `pytest -v -s tests/test_acceptance.py`.
Seeds are fixed; every random family is reproducible.
"""

import math
import time

import numpy as np

from pettylab import (axis_ratio, berwald_check, cone_bound, invariants,
                      petty_value, q_direction, ratio, optimize)
from pettylab.functionals import BALL_RATIO
from pettylab.revolution import ball_petty_value
from pettylab.suites import (suite_class_reduction, suite_formula_coherence,
                             suite_fubini, suite_minkowski,
                             suite_schwartz_monotone, suite_steiner_monotone,
                             suite_theorem_1_1, suite_theorem_1_2,
                             suite_ts_ratio, suite_zhang_petty)
from pettylab import fixtures, save_body
from pettylab.cli import main

E3 = np.array([0.0, 0.0, 1.0])


def report(k, label, ok, detail=""):
    print(f"\nACCEPTANCE {k} {label}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {k} ({label}): {detail}"


def all_pass(rows):
    bad = [r for r in rows if r.status == "FAIL"]
    return not bad, "; ".join(f"{r.name}={r.value} [{r.detail}]" for r in bad)


def test_criterion_01_zonoid_upper_bound():
    t0 = time.monotonic()
    rows = suite_theorem_1_1(samples=10_000, seed=31)
    elapsed = time.monotonic() - t0
    ok, bad = all_pass(rows)
    cube_val = float(ratio(fixtures.cube_zonotope(), np.eye(3)).max())
    ok = ok and abs(cube_val - 8.0) <= 1e-9 and elapsed < 60.0
    report(1, "zonoid ratio <= 8 on 1e4 zonotopes", ok,
           f"worst={rows[0].value:.12g} cube={cube_val:.9f} {elapsed:.1f}s {bad}")


def test_criterion_02_symmetric_lower_bound(tmp_path, capsys):
    t0 = time.monotonic()
    rows = suite_theorem_1_2(samples=1000, seed=37)
    elapsed = time.monotonic() - t0
    ok, bad = all_pass(rows)
    oct_ = fixtures.octahedron()
    oct_val = float(ratio(oct_, E3[None, :])[0])
    # compute flags the octahedron's m as an equality
    save_body(oct_, tmp_path / "octahedron.json")
    code = main(["--no-timestamp", "compute", str(tmp_path / "octahedron.json"),
                 "--invariants", "m", "--grid", "256", "--refine", "20"])
    flagged = code == 0 and "\nnear-lower-equality,6," in capsys.readouterr().out
    ok = ok and abs(oct_val - 6.0) <= 1e-6 and flagged and elapsed < 300.0
    report(2, "symmetric ratio >= 6 on 1e3 hulls", ok,
           f"worst={rows[0].value:.12g} oct={oct_val:.9f} flagged={flagged} "
           f"{elapsed:.1f}s {bad}")


def test_criterion_03_ts_sharp_constant():
    rows = suite_ts_ratio(samples=100_000, seed=42)
    ok, bad = all_pass(rows)
    run = optimize("max-ts-ratio", n=4, restarts=2, iters=1500, seed=42)
    ok = ok and (4.0 / 3.0 - 1e-6 <= run.best_value <= 4.0 / 3.0 + 1e-12)
    report(3, "t/s ratio sharp constant 4/3", ok,
           f"max-random={rows[0].value:.3e} search={run.best_value!r} {bad}")


def test_criterion_04_formula_coherence():
    rows = suite_formula_coherence(samples=200, seed=7)
    ok, bad = all_pass(rows)
    report(4, "shadow and second-support formulas cohere", ok,
           f"{'; '.join(f'{r.name}={r.value:.3e}' for r in rows)} {bad}")


def test_criterion_05_fubini_identity():
    rows = suite_fubini(samples=200, seed=11)
    ok, bad = all_pass(rows)
    report(5, "mixed-volume exchange identity", ok,
           f"worst-rel={rows[0].value:.3e} cube/tet={rows[1].value:.12g} {bad}")


def test_criterion_06_class_reduction_and_minkowski():
    rows = suite_class_reduction(samples=100, seed=43)
    rows += suite_minkowski(samples=100, seed=13)
    ok, bad = all_pass(rows)
    report(6, "P(Pi K) <= P(K) and Minkowski inequality", ok,
           f"max-gap={rows[0].value:.3e} min-slack={rows[1].value:.9f} {bad}")


def test_criterion_07_petty_fixture_values():
    vals = {
        "cube": (petty_value(fixtures.cube()), 8.0, 1e-6),
        "icosphere3": (petty_value(fixtures.icosphere(3)), BALL_RATIO, 0.005 * BALL_RATIO),
        "octahedron": (petty_value(fixtures.octahedron()), 9.0, 1e-6),
        "tetrahedron": (petty_value(fixtures.tetrahedron()), 18.0, 1e-6),
    }
    ok = all(abs(v - want) <= tol for v, want, tol in vals.values())
    report(7, "P fixtures (cube/ball/oct/tet)", ok,
           " ".join(f"{k}={v:.8g}" for k, (v, _, _) in vals.items()))


def test_criterion_08_slice_functional_bounds():
    rng = np.random.default_rng(47)
    worst_pq = np.inf
    worst_rq = np.inf
    for _ in range(500):
        P = fixtures.random_symmetric_polytope(rng, int(rng.integers(4, 13)))
        rep = invariants(P, grid=64, refine=6, want=("P", "Q"))
        worst_pq = min(worst_pq, rep.P - rep.Q)
        r_at_qdir = ratio(P, rep.Q_dir)
        worst_rq = min(worst_rq, r_at_qdir - rep.Q)
    q_cube = q_direction(fixtures.cube(), E3)
    q_oct = q_direction(fixtures.octahedron(), E3)
    q_ball = q_direction(fixtures.icosphere(3), E3)
    ok = (worst_pq >= -1e-6 and worst_rq >= -1e-6
          and abs(q_cube - 8.0) <= 1e-9
          and abs(q_oct - 6.0) <= 1e-9
          and abs(q_ball - BALL_RATIO) <= 0.005 * BALL_RATIO)
    report(8, "slice functional lower-bounds P and ratio", ok,
           f"min(P-Q)={worst_pq:.3e} min(ratio-Q)={worst_rq:.3e} "
           f"q:cube={q_cube:.9f} oct={q_oct:.9f} ball={q_ball:.5f}")


def test_criterion_09_symmetrization_monotonicity():
    rows = suite_steiner_monotone(samples=500, seed=17)
    rows += suite_schwartz_monotone(samples=200, seed=19)
    ok, bad = all_pass(rows)
    report(9, "Steiner/Schwartz monotonicity", ok,
           f"steiner-gap={rows[0].value:.3e} schwartz-gap={rows[1].value:.3e} {bad}")


def test_criterion_10_revolution_sharp_values():
    worst = 0.0
    for d in range(3, 17):
        dc = fixtures.double_cone_profile(d=d)
        worst = max(worst, abs(axis_ratio(dc) / cone_bound(d) - 1.0))
    d3 = axis_ratio(fixtures.double_cone_profile())
    cyl = axis_ratio(fixtures.cylinder_profile())
    rng = np.random.default_rng(53)
    berwald_ok = True
    false_eq = 0
    for _ in range(1000):
        R = fixtures.random_concave_profile(rng, n_nodes=int(rng.integers(3, 8)))
        res = berwald_check(R.s, R.f, 1.0, 2.0)
        if res.lhs < res.rhs - 1e-12 * max(res.lhs, 1.0):
            berwald_ok = False
        if res.equality:
            false_eq += 1
    tent = berwald_check(*_tent_nodes(), 1.0, 2.0)
    ok = (worst <= 1e-12 and abs(d3 - 6.0) <= 1e-12 and abs(cyl - 8.0) <= 1e-12
          and berwald_ok and false_eq == 0 and tent.equality
          and abs(tent.lhs - tent.rhs) < 1e-10)
    report(10, "double-cone/cylinder sharp values + moment inequality", ok,
           f"cone-gap={worst:.2e} d3={d3:.12g} cyl={cyl:.12g} false-eq={false_eq}")


def _tent_nodes():
    dc = fixtures.double_cone_profile()
    return dc.s, dc.f


def test_criterion_11_revolution_dimension_asymptotics():
    target = math.sqrt(math.e / (2.0 * math.pi))
    cds = {}
    for d in range(3, 51):
        cb = cone_bound(d)
        assert cb > 0.0
        cds[d] = cb * math.sqrt(d) / (2.0 * ball_petty_value(d))
    gap50 = abs(cds[50] / target - 1.0)
    monotone = all(abs(cds[d + 1] / target - 1.0) <= abs(cds[d] / target - 1.0) + 1e-12
                   for d in range(3, 50))
    ok = gap50 <= 0.05 and monotone
    report(11, "monitored constant approaches sqrt(e/2pi)", ok,
           f"c_50={cds[50]:.6f} target={target:.6f} gap={gap50:.2%}")


def test_criterion_12_polar_volume_band():
    rows = suite_zhang_petty(samples=100, seed=29)
    ok, bad = all_pass(rows)
    report(12, "polar-volume band [20/27, 64/27]", ok,
           f"{rows[0].detail} {bad}")


def test_criterion_13_improved_lower_bound():
    rng = np.random.default_rng(59)
    values = [petty_value(fixtures.cube()), petty_value(fixtures.octahedron()),
              petty_value(fixtures.tetrahedron()), petty_value(fixtures.icosphere(2)),
              BALL_RATIO]
    for _ in range(100):
        values.append(petty_value(fixtures.random_zonotope(rng, int(rng.integers(3, 9)))))
    for _ in range(100):
        values.append(petty_value(fixtures.random_symmetric_polytope(
            rng, int(rng.integers(4, 13)))))
    low = min(values)
    ok = low >= 6.0 - 1e-6 and low > 27.0 / 6.0
    report(13, "every computed P >= 6, beating 27/6", ok,
           f"min-P={low:.9f} over {len(values)} bodies")
