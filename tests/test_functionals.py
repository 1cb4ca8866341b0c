"""Invariants, tuple functionals, mixed volumes, polar volumes."""

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from pettylab import (Ball, GeneratorSet, InputError, InvariantReport, LimitError,
                      SymmetryError, invariants, mixed_volume, petty_value, polar_volume,
                      q_direction, ratio, s_term, sl_invariance_check, t_term,
                      ts_sums, z_shadow_area)
from pettylab.functionals import (BALL_RATIO, LIMIT_MARGIN, LIMITS, _chart_refine,
                                  _nelder_mead, check_limit, sqrt_quadratic_integral)
from pettylab.geom import plane_basis, unitize
from pettylab import (convex_hull, fibonacci_sphere, fixtures, functionals, revolution,
                      slice_area, zonotope)
from pettylab.cli import GRID_MAX
from pettylab.suites import _sl_cases
from pettylab.revolution import rev_to_polytope

E1, E2, E3 = np.eye(3)
SHARP = 4.0 / 3.0


class TestTerms:
    def test_s_term_unit(self):
        assert s_term(E1, E2, E3, E3, E3) == 1.0

    def test_s_term_dependent_det(self):
        assert s_term(E1, E2, E1 + E2, [1.0, 2, 3], [0.2, 0.4, 1]) == 0.0

    def test_s_term_orthogonal(self):
        assert s_term(E1, E2, E3, E1, E3) == 0.0

    def test_t_term_hand_value(self):
        # det(e1 x e3, e2 x e3, e3) = det(-e2, e1, e3) = 1
        assert t_term(E1, E3, E2, E3, E3) == 1.0

    def test_t_term_repeated(self):
        assert t_term(E1, E1, E2, E3, E3) == 0.0

    def test_t_term_parallel_wedges(self):
        assert t_term(E1, E2, E1, E2, E3) == 0.0

    def test_identity_t_vs_s(self, rng):
        # |det(a x c, b x c, x)| = |det(a,b,c)| |<x,c>| on random triples
        for _ in range(10_000):
            a, b, c, x = rng.standard_normal((4, 3))
            lhs = t_term(a, c, b, c, x)
            rhs = s_term(a, b, c, c, x)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def _perm_sums(V, x):
    """s_sym and t_sym by definition: s_term/t_term over the 24 orders of V."""
    orders = list(itertools.permutations(V))
    return (sum(s_term(a, b, c, w, x) for a, b, c, w in orders),
            sum(t_term(a, b, c, w, x) for a, b, c, w in orders))


# zero or at least 1e-3 in magnitude: products of four tiny coordinates
# underflow, in the definition and the closed form alike
_coord = st.one_of(st.just(0.0), st.floats(1e-3, 4.0), st.floats(-4.0, -1e-3))
_vec = st.lists(_coord, min_size=3, max_size=3).map(np.array)


@st.composite
def _tuples(draw):
    """A 4-tuple and a direction: generic, with a repeated vector, coplanar,
    or with the direction orthogonal to one vector."""
    V = np.array([draw(_vec) for _ in range(4)])
    x = draw(_vec)
    kind = draw(st.sampled_from(["generic", "repeated", "coplanar", "orthogonal"]))
    if kind == "repeated":
        V[3] = V[2] * draw(st.floats(0.25, 4.0))
    elif kind == "coplanar":
        V[:, 2] = 0.0
    elif kind == "orthogonal":
        x = np.cross(V[draw(st.integers(0, 3))], x)
    return kind, V, x


class TestSymmetrized:
    def test_enumeration_values(self):
        assert ts_sums([E1, E2, E3, E3], E3) == (12.0, 16.0)

    def test_degenerate_tuple(self):
        assert ts_sums([E1, E2, E1 + E2, E1], E3) == (0.0, 0.0)

    def test_symmetry_in_arguments(self, rng):
        v = rng.standard_normal((4, 3))
        x = rng.standard_normal(3)
        assert ts_sums(v, x) == pytest.approx(ts_sums(v[[2, 0, 3, 1]], x), rel=1e-12)

    def test_ratio_parallel_pair(self):
        s, t = ts_sums([E1, E2, E3, E3], E3)
        assert t / s == pytest.approx(SHARP, abs=1e-15)

    def test_ratio_undefined(self):
        # a degenerate row reads s_sym = t_sym = 0 among regular rows
        s, t = ts_sums([[E1, E2, E3, E3], [E1, E2, E1 + E2, E1]], [E3, E3])
        assert (s[1], t[1]) == (0.0, 0.0) and s[0] > 0.0

    def test_sharp_bound_random(self, rng):
        tuples = rng.standard_normal((100_000, 4, 3))
        xs = rng.standard_normal((100_000, 3))
        s, t = ts_sums(tuples, xs)
        assert np.all(s > 0.0)
        assert float(np.max(t / s)) <= SHARP + 1e-12

    def test_batch_matches_scalar(self, rng):
        # rows cross chunk boundaries; each equals its single call bit for bit
        tuples = rng.standard_normal((3000, 4, 3))
        xs = rng.standard_normal((3000, 3))
        s, t = ts_sums(tuples, xs)
        for k in range(0, 3000, 7):
            assert ts_sums(tuples[k], xs[k]) == (s[k], t[k])

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            ts_sums(np.zeros((2, 4, 3)), np.zeros(3))

    @given(_tuples())
    @settings(max_examples=200, deadline=None)
    def test_closed_form_matches_permutation_sums(self, case):
        kind, V, x = case
        s, t = ts_sums(V, x)
        s_ref, t_ref = _perm_sums(V, x)
        # every term is at most |v_1||v_2||v_3||v_4||x|: rel 1e-12 of that scale
        scale = 24.0 * np.prod(np.linalg.norm(V, axis=1)) * np.linalg.norm(x)
        assert s == pytest.approx(s_ref, rel=1e-12, abs=1e-12 * scale)
        assert t == pytest.approx(t_ref, rel=1e-12, abs=1e-12 * scale)
        if kind == "coplanar":
            assert (s, t) == (0.0, 0.0)
        if kind == "repeated" and s > 1e-6 * scale:
            assert t / s == pytest.approx(SHARP, rel=1e-9)


class TestBridgingIdentity:
    def test_ratio_equals_term_quotient(self, rng):
        # ratio(Z, x) = 6 * sum t_term / sum s_term over ordered 4-tuples
        for _ in range(15):
            Z = fixtures.random_zonotope(rng, int(rng.integers(3, 6)))
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            g = Z.gens
            n = len(g)
            num = den = 0.0
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for l in range(n):
                            num += t_term(g[i], g[j], g[k], g[l], x)
                            den += s_term(g[i], g[j], g[k], g[l], x)
            assert ratio(Z, x) == pytest.approx(6.0 * num / den, rel=1e-9)

    def test_cube_calibration(self):
        assert ratio(fixtures.cube_zonotope(), E3) == 8.0


class TestMixedVolume:
    def test_diagonal_is_volume(self, cube):
        assert mixed_volume(cube, cube) == pytest.approx(8.0, rel=1e-12)

    def test_octahedron_cube(self, cube, octahedron):
        assert mixed_volume(octahedron, cube) == pytest.approx(8.0, rel=1e-12)

    def test_fubini_cube_tetrahedron(self, tetrahedron):
        piK = fixtures.cube_zonotope().pi_body
        assert mixed_volume(tetrahedron.pi_body, piK) == pytest.approx(64.0, rel=1e-12)
        assert mixed_volume(piK.pi_body, tetrahedron) == pytest.approx(64.0, rel=1e-12)

    def test_fubini_random(self, rng):
        for _ in range(60):
            K = fixtures.random_zonotope(rng, int(rng.integers(3, 7)))
            L = fixtures.random_symmetric_polytope(rng, int(rng.integers(4, 9)))
            lhs = mixed_volume(L.pi_body, K.pi_body)
            rhs = mixed_volume(K.pi_body.pi_body, L)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_minkowski_inequality(self, rng):
        from pettylab import z_volume
        for _ in range(60):
            K = fixtures.random_symmetric_polytope(rng, int(rng.integers(4, 9)))
            L = fixtures.random_zonotope(rng, int(rng.integers(3, 7)))
            bound = K.volume ** (1 / 3) * z_volume(L) ** (2 / 3)
            assert mixed_volume(K, L) >= bound * (1.0 - 1e-9)

    def test_mixed_vs_zonotope_diagonal(self, rng):
        from pettylab import z_volume
        for _ in range(40):
            Z = fixtures.random_zonotope(rng, int(rng.integers(3, 8)))
            assert mixed_volume(Z, Z) == pytest.approx(z_volume(Z), rel=1e-9)


class TestPolarVolume:
    def test_ball_self_polar(self):
        assert polar_volume(Ball()) == pytest.approx(4 * math.pi / 3, rel=1e-12)

    def test_cube_polar_is_cross_polytope(self, cube):
        assert polar_volume(cube) == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_octahedron_polar_is_cube(self, octahedron):
        assert polar_volume(octahedron) == pytest.approx(8.0, rel=1e-12)

    def test_polarity_scaling(self):
        big = GeneratorSet(4.0 * np.eye(3))  # body [-4, 4]^3
        assert polar_volume(big) == pytest.approx(1.0 / 48.0, rel=1e-12)

    def test_simplex_attains_zhang_bound(self, tetrahedron):
        val = polar_volume(tetrahedron.pi_body) * tetrahedron.volume ** 2
        assert val == pytest.approx(20.0 / 27.0, rel=1e-12)

    def test_revolution_body_is_realized(self):
        # the realization is the sum of a 64-gon and a segment, whose polar is
        # the product of the polar 64-gon (area 64 tan(pi/64)) and [-1, 1]
        cone = fixtures.double_cone_profile()
        assert polar_volume(cone) == polar_volume(rev_to_polytope(cone))
        assert polar_volume(cone) == pytest.approx(2.0 * 64 * math.tan(math.pi / 64),
                                                   rel=1e-12)

    def test_origin_not_interior(self):
        from pettylab import convex_hull
        shifted = convex_hull(fixtures.cube().vertices + 5.0)
        with pytest.raises(InputError):
            polar_volume(shifted)


class TestRatio:
    def test_cube(self, cube):
        assert ratio(cube, E3) == 8.0

    def test_octahedron(self, octahedron):
        assert ratio(octahedron, E3) == pytest.approx(6.0, abs=1e-12)

    def test_ball(self):
        assert ratio(Ball(), E1) == pytest.approx(3 * math.pi ** 2 / 4, rel=1e-15)

    def test_revolution_axis_closed_form(self):
        dc = fixtures.double_cone_profile()
        assert ratio(dc, E3) == pytest.approx(6.0, rel=1e-12)

    def test_asymmetric_rejected(self, tetrahedron):
        with pytest.raises(SymmetryError):
            ratio(tetrahedron, E3)
        with pytest.raises(SymmetryError):
            ratio(tetrahedron, np.eye(3))

    @pytest.mark.parametrize("t", [1e-4, 1e-6, 1e-8])
    def test_flattened_zonotope_keeps_its_ratio(self, t):
        # ratio(T Z, T^-T x) = ratio(Z, x): the short Pi^2 rows of T Z count
        Z = GeneratorSet([E1, E2, E3, [1.0, 1.0, 1.0]])
        x = np.array([1.0, -1.0, -1.0]) / math.sqrt(3.0)
        T = np.diag([1.0, 1.0, t])
        assert ratio(Z, x) == pytest.approx(7.0, rel=1e-12)
        assert ratio(Z.map_linear(T), np.linalg.inv(T).T @ x) == pytest.approx(7.0, rel=1e-12)

    def test_zonotope_polytope_agree(self, rng):
        from pettylab import convex_hull
        from pettylab.zonotope import zonotope_vertices
        Z = fixtures.random_zonotope(rng, 4)
        P = convex_hull(zonotope_vertices(Z), symmetric=True)
        for _ in range(10):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            assert ratio(Z, x) == pytest.approx(ratio(P, x), rel=1e-9)


class TestQDirection:
    def test_cube_axis(self, cube):
        assert q_direction(cube, E3) == pytest.approx(8.0, abs=1e-9)

    def test_octahedron_axis(self, octahedron):
        assert q_direction(octahedron, E3) == pytest.approx(6.0, abs=1e-9)

    def test_octahedron_diagonal(self, octahedron):
        # independent closed form: sections are hexagons of area (sqrt3/4)(3-s^2)
        u = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        s = np.sqrt(3.0)
        integral = (1.0 / s) * (3.0 ** 0.25 / 2.0) * 2.0 * (
            math.sqrt(2.0) / 2.0 + 1.5 * math.asin(1.0 / s))
        expect = 4.0 * integral ** 2 / ((1.0 / s) * (4.0 / 3.0))
        assert q_direction(octahedron, u) == pytest.approx(expect, rel=1e-9)

    def test_ball(self):
        assert q_direction(Ball(), E3) == BALL_RATIO

    def test_revolution_body_is_its_polytope(self):
        # off the axis too: the cylinder's 64-gon prism, not its axis value 8
        R = fixtures.cylinder_profile()
        assert q_direction(R, E1) == q_direction(rev_to_polytope(R), E1)
        assert q_direction(R, E1) < 7.8

    def test_ratio_dominates_slice_functional(self, rng):
        # ratio(K, x) >= q_direction(K, x) for every direction
        for _ in range(25):
            P = fixtures.random_symmetric_polytope(rng, int(rng.integers(4, 9)))
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            assert ratio(P, x) >= q_direction(P, x) - 1e-6


def _sliced_q(P, x):
    """q(P, x) from mpmath.quad of sqrt(slice_area), piece by piece.

    Independent of the piece quadratics: the integrand is the scalar section
    area, integrated between consecutive distinct vertex heights.
    """
    u = np.asarray(x, dtype=float) / np.linalg.norm(x)
    h = np.unique(P.vertices @ u)
    f = lambda s: math.sqrt(slice_area(P, u, float(s)))
    integral = float(sum(mpmath.quad(f, [a, b]) for a, b in zip(h[:-1], h[1:])))
    return 4.0 * integral ** 2 / (max(h[-1], -h[0]) * P.volume)


class TestQAgainstSlicing:
    def test_icosphere1_nearly_tied_heights(self):
        # pieces about 1e-7 wide, where a fit through samples broke down
        P = fixtures.icosphere(1)
        x = np.array([-9.3e-8, -0.934, -0.357])
        assert q_direction(P, x) == pytest.approx(_sliced_q(P, x), rel=1e-10)

    def test_seeded_sphere_hulls_at_Q_dir(self):
        # 4-12 antipodal pairs on the sphere; Q at its own refined direction
        for seed in range(1, 7):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 686]))
            for n in (4, 6, 8, 10, 12):
                p = rng.standard_normal((n, 3))
                p /= np.linalg.norm(p, axis=1)[:, None]
                P = convex_hull(np.vstack([p, -p]), symmetric=True)
                rep = invariants(P, want=("P", "Q"))
                assert rep.Q == pytest.approx(_sliced_q(P, rep.Q_dir), rel=1e-10)
                assert rep.Q <= rep.P

    def test_segments_at_the_prefix_sum_threshold(self, threshold_bipyramid):
        for x in (E3, np.array([0.01, 0.02, 1.0])):
            q = q_direction(threshold_bipyramid, x)
            assert q == pytest.approx(_sliced_q(threshold_bipyramid, x), rel=1e-10)

    def test_batch_rows_match_single_directions(self, rng):
        P = fixtures.random_symmetric_polytope(rng, 7)
        X = rng.standard_normal((40, 3))
        single = [q_direction(P, x) for x in X]
        assert np.allclose(q_direction(P, X), single, rtol=1e-13, atol=0.0)


def test_Q_is_no_lower_bound_for_P():
    # P is the mean of the ratio over the cone-volume measure, so m <= P <= M;
    # q is at most the ratio in each direction, so Q <= M, for every n; yet
    # Q may exceed P, as it does at 14 generators
    rng = np.random.default_rng(0)
    for n in (3, 4, 6, 8, 10, 12, 14):
        Z = GeneratorSet(rng.standard_normal((n, 3)))
        rep = invariants(Z, grid=512, refine=20)
        assert rep.m <= rep.P <= rep.M
        assert rep.Q <= rep.M
        assert q_direction(Z, rep.Q_dir) <= ratio(Z, rep.Q_dir)
    assert rep.Q > rep.P


def test_cube_Q_not_above_P():
    rep = invariants(fixtures.cube(), want=("P", "Q"))
    assert abs(rep.Q - 8.0) <= 1e-9
    assert rep.Q <= rep.P + 1e-12


@st.composite
def _pieces(draw):
    """(a, b, c) with a + b t + c t^2 >= 0 on [0, 1], one family per branch."""
    kind = draw(st.sampled_from(["any", "series", "tip0", "tip1", "constant", "narrow"]))
    q0, q1 = draw(st.floats(0.0, 4.0)), draw(st.floats(0.0, 4.0))
    c = draw(st.floats(-8.0, 8.0))
    if kind == "series":
        c = draw(st.floats(-1e-8, 1e-8)) * q0
    elif kind == "tip0":
        q0 = 0.0
    elif kind == "tip1":
        q1 = 0.0
    elif kind == "constant":
        q1, c = q0, 0.0
    a, b = q0, q1 - q0 - c
    if kind == "narrow":
        # a piece of width w cut from a + b' s + c' s^2
        w = 10.0 ** draw(st.floats(-12.0, 0.0))
        b, c = w * draw(st.floats(-3.0, 3.0)), w * w * draw(st.floats(-3.0, 3.0))
    # rounding may leave q(1) a few ulps below zero at a tip
    m = max(abs(a), abs(b), abs(c)) or 1.0
    assume(a + b + c >= -1e-15 * m)
    # no interior minimum below zero; tested at unit scale, where b * b
    # cannot underflow to 0 and let a piece negative inside [0, 1] through
    a1, b1, c1 = a / m, b / m, c / m
    assume(not (c1 > 0.0 and 0.0 < -b1 / (2.0 * c1) < 1.0 and a1 - b1 * b1 / (4.0 * c1) < 0.0))
    return a, b, c


@settings(max_examples=400, deadline=None)
@given(_pieces())
def test_sqrt_quadratic_integral_against_mpmath(piece):
    a, b, c = piece
    with mpmath.workdps(40):
        # mpmath's error target is absolute: integrate at unit scale
        m = mpmath.mpf(max(abs(a), abs(b), abs(c)) or 1.0)
        q = lambda t: (a + b * t + c * t * t) / m
        cuts = [mpmath.mpf(0), mpmath.mpf(1)]
        if c != 0.0 and 0.0 < -b / (2.0 * c) < 1.0:
            cuts.insert(1, mpmath.mpf(-b) / (2 * c))
        ref = mpmath.sqrt(m) * mpmath.quad(lambda t: mpmath.sqrt(max(q(t), 0)), cuts)
    got = float(sqrt_quadratic_integral(a, b, c))
    assert abs(got - float(ref)) <= 1e-12 * float(ref)


class TestSqrtQuadraticIntegralShapes:
    """Output shape and values when the series and the closed form split a batch."""

    # linear pieces (c = 0) all take the series; these arcs (c < 0) and
    # hyperbolas (c > 0) all take the closed form
    SERIES = ([1.0, 2.0, 0.5, 3.0], [1.0, -1.0, 0.25, 0.0], [0.0, 0.0, 0.0, 0.0])
    CLOSED = ([1.0, 1.0, 0.0, 4.0, 0.5, 1.0], [2.0, 0.0, 4.0, -4.0, -2.0, -4.0],
              [-3.0, -1.0, -4.0, 4.0, 2.0, 8.0])

    @staticmethod
    def _reference(a, b, c):
        with mpmath.workdps(40):
            return float(mpmath.quad(lambda t: mpmath.sqrt(max(a + b * t + c * t * t, 0)),
                                     [0, 0.5, 1]))

    @pytest.mark.parametrize("batch", ["series", "closed", "mixed"])
    def test_scalar_flat_and_grid_shapes(self, batch):
        rows = {"series": self.SERIES, "closed": self.CLOSED,
                "mixed": [s + c for s, c in zip(self.SERIES, self.CLOSED)]}[batch]
        a, b, c = (np.array(v) for v in rows)
        flat = sqrt_quadratic_integral(a, b, c)
        assert flat.shape == a.shape
        for i in range(a.size):
            one = sqrt_quadratic_integral(a[i], b[i], c[i])
            assert np.shape(one) == () and one == flat[i]
            assert one == pytest.approx(self._reference(a[i], b[i], c[i]), rel=1e-12)
        # (d, V-1), as q_direction passes it, and a scalar broadcast against it
        grid = sqrt_quadratic_integral(*(np.tile(v, (3, 1)) for v in (a, b, c)))
        assert grid.shape == (3, a.size) and np.array_equal(grid, np.tile(flat, (3, 1)))
        assert sqrt_quadratic_integral(a, b, 0.0).shape == a.shape


def _pruning_bodies():
    """The fixtures, 20 seeded symmetric hulls of 4-20 pairs and 3 zonotopes."""
    bodies = [("octahedron", fixtures.octahedron()), ("cube", fixtures.cube()),
              ("icosphere1", fixtures.icosphere(1)), ("cylinder", fixtures.cylinder_profile()),
              ("double-cone", fixtures.double_cone_profile())]
    for seed in range(20):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 22]))
        n = 4 + seed * 16 // 19
        bodies.append((f"hull{n}-seed{seed}", fixtures.random_symmetric_polytope(rng, n)))
    for n in (4, 6, 8):
        bodies.append((f"zonotope{n}", fixtures.random_zonotope(np.random.default_rng(n), n)))
    return [pytest.param(B, id=name) for name, B in bodies]


class TestScan:
    """_scan, the pruned evaluation behind both grids, against a full evaluation."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 700), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_scan_equals_full_evaluation(self, seed, n, levels):
        rng = np.random.default_rng(seed)
        # few levels, so that many rows tie, of either sign, as m's ratios and
        # Q's -q have
        values = 0.75 * rng.integers(-levels, levels + 1, n)
        # lower bounds at or below each value, a third of them equal to it;
        # known rows carry their value and an infinite bound
        lower = values - np.where(rng.random(n) < 1 / 3, 0.0, rng.exponential(1.0, n))
        known = rng.random(n) < 0.1
        lower[known] = np.inf
        asked = []

        def fn(rows):
            asked.append(rows)
            return values[rows]

        got = functionals._scan(fn, lower, np.where(known, values, np.inf))
        assert np.min(got) == np.min(values)
        assert np.argmin(got) == np.argmin(values)
        ties = values == np.min(values)
        assert np.array_equal(got[ties], values[ties])
        # batches of 64, then twice as many each time; no row asked twice, no
        # known row asked, and every row not asked and not known left at +inf
        assert all(len(rows) <= functionals._FIRST_BATCH * 2 ** k for k, rows in enumerate(asked))
        evaluated = np.concatenate(asked) if asked else np.empty(0, dtype=int)
        assert len(np.unique(evaluated)) == len(evaluated) and not known[evaluated].any()
        skipped = np.ones(n, dtype=bool)
        skipped[evaluated] = False
        skipped[known] = False
        assert np.array_equal(got[~skipped], values[~skipped]) and np.all(got[skipped] == np.inf)


class TestPrunedQGrid:
    """Q on the grid evaluates q only where the ratio, its upper bound, can still win."""

    @pytest.mark.parametrize("refine", [0, 50])
    @pytest.mark.parametrize("B", _pruning_bodies())
    def test_pruned_grid_equals_full_grid(self, monkeypatch, B, refine):
        monkeypatch.setattr(functionals, "_PRUNE_MIN", 0)
        pruned = invariants(B, refine=refine, want=("Q",))
        monkeypatch.setattr(functionals, "_PRUNE_MIN", math.inf)
        full = invariants(B, refine=refine, want=("Q",))
        assert pruned.Q == pytest.approx(full.Q, rel=1e-12)
        # a moved direction may only trade places with one of equal q
        if not np.array_equal(pruned.Q_dir, full.Q_dir):
            assert q_direction(B, pruned.Q_dir) == pytest.approx(
                q_direction(B, full.Q_dir), rel=1e-14)

    def test_ties_keep_the_first_row(self, monkeypatch, rng):
        # q in steps of 0.1 ties on many rows; the bound orders them otherwise
        step_q = lambda B, Y: np.round(np.atleast_2d(Y)[:, 2] ** 2, 1)
        monkeypatch.setattr(functionals, "q_direction", step_q)
        X = fibonacci_sphere(500)
        q = step_q(None, X)
        # a bound above q, a constant one and q itself, scanned as invariants does
        for bound in (q + rng.uniform(0.0, 0.05, len(q)), np.ones(len(q)), q):
            neg = functionals._scan(lambda rows: -step_q(None, X[rows]), -bound,
                                    np.full(len(q), np.inf))
            assert (int(np.argmin(neg)), -float(np.min(neg))) == (int(np.argmax(q)),
                                                                   float(np.max(q)))

    def _q_rows(self, monkeypatch):
        """Count the directions q_direction is asked for."""
        rows, q = [], functionals.q_direction
        monkeypatch.setattr(functionals, "q_direction",
                            lambda B, X: rows.append(len(np.atleast_2d(X))) or q(B, X))
        return rows

    def test_icosphere1_evaluates_under_a_third_of_its_grid(self, monkeypatch):
        rows = self._q_rows(monkeypatch)
        B = fixtures.icosphere(1)
        rep = invariants(B, refine=0, want=("P", "Q"))
        assert sum(rows) < (2048 + 3 + len(B.candidates)) / 3
        assert rep.Q == pytest.approx(7.532643233918394, rel=1e-12)

    def test_tetrahedron_takes_the_full_grid(self, monkeypatch, tetrahedron):
        # an asymmetric body has no ratio to bound q with
        rows = self._q_rows(monkeypatch)

        def no_ratio(B, X):
            raise AssertionError("ratio evaluated on an asymmetric body")

        monkeypatch.setattr(functionals, "ratio", no_ratio)
        rep = invariants(tetrahedron, grid=512, refine=0, want=("Q",))
        assert rows == [512 + 3 + len(tetrahedron.candidates)]
        X = np.vstack([fibonacci_sphere(512), np.eye(3), tetrahedron.candidates])
        assert rep.Q == np.max(q_direction(tetrahedron, X))


def _sphere_hull(seed, n):
    """Symmetric hull of n seeded pairs of unit vectors: every point a vertex."""
    p = np.random.default_rng(seed).standard_normal((n, 3))
    p /= np.linalg.norm(p, axis=1)[:, None]
    return convex_hull(np.vstack([p, -p]), symmetric=True)


def _m_pruning_bodies():
    """The fixtures, a rotated cube, seeded symmetric hulls of 30-100 pairs, zonotopes of 12-24."""
    rot = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
    rot *= np.sign(np.linalg.det(rot))
    bodies = [("cube", fixtures.cube()), ("cube-zonotope", fixtures.cube_zonotope()),
              ("rotated-cube", fixtures.cube_zonotope().map_linear(rot)),
              ("octahedron", fixtures.octahedron()), ("icosphere2", fixtures.icosphere(2)),
              ("cylinder", fixtures.cylinder_profile()),
              ("double-cone", fixtures.double_cone_profile())]
    for n in (30, 45, 60, 80, 100):
        bodies.append((f"hull{n}", _sphere_hull(n, n)))
    for n in (12, 16, 20, 24):
        bodies.append((f"zonotope{n}", fixtures.random_zonotope(np.random.default_rng(n), n)))
    return [pytest.param(B, id=name) for name, B in bodies]


class TestPrunedMGrid:
    """m on the grid evaluates the ratio only where its lower bound by vertices of Pi^2 B can win."""

    @pytest.mark.parametrize("B", _m_pruning_bodies())
    def test_rows_that_can_win_are_exact(self, B):
        B = functionals._realized(B)
        X = np.vstack([fibonacci_sphere(2048), np.eye(3)])
        full = ratio(B, X)
        # the grid and the axes, bounded by the vertices supporting the
        # candidates' shadows and the axes', as invariants bounds them: the
        # axes always, and a skipped row is above the minimum
        V = z_shadow_area(B.pi_body, B.candidates, vertices=True)[1]
        pruned = functionals._grid_ratios(B, X, V)
        exact = np.isfinite(pruned)
        assert exact[-3:].all()
        assert pruned[exact] == pytest.approx(full[exact], rel=1e-14)
        assert exact[full <= np.min(full) * (1.0 + 1e-12)].all()
        # the first row of a tie, or one whose ratio equals it to rounding
        i, j = int(np.argmin(full)), int(np.argmin(pruned))
        assert pruned[j] == pytest.approx(full[i], rel=1e-14)
        if i != j:
            assert full[j] == pytest.approx(full[i], rel=1e-14)

    @pytest.mark.parametrize("refine", [0, 50])
    @pytest.mark.parametrize("B", _m_pruning_bodies())
    def test_pruned_grid_equals_full_grid(self, B, refine):
        # the full grid evaluated and refined here; the cubes and the
        # octahedron read the facet normals of Pi^2 B, and their minimum
        # lies at the axes, rows of the grid
        pruned = invariants(B, refine=refine, want=("M", "m"))
        B = functionals._realized(B)
        X = np.vstack([fibonacci_sphere(functionals.GRID), np.eye(3), B.candidates])
        full = ratio(B, X)
        i = int(np.argmin(full))
        m_dir, m = X[i], float(full[i])
        if refine:
            m_dir, m = _chart_refine(lambda Y: ratio(B, Y), m_dir, m, False, refine)
        assert pruned.M == pytest.approx(np.max(full[-len(B.candidates):]), rel=1e-14)
        assert pruned.m == pytest.approx(m, rel=1e-14)
        if not np.array_equal(pruned.m_dir, m_dir):
            assert ratio(B, pruned.m_dir) == pytest.approx(ratio(B, m_dir), rel=1e-14)

    def _rows(self, monkeypatch):
        """Count the directions of shadows asked for without vertices and with them."""
        rows = {"exact": [], "vertices": []}
        shadow = functionals.z_shadow_area

        def counted(Z, X, d=None, vertices=False):
            rows["vertices" if vertices else "exact"].append(len(np.atleast_2d(X)))
            return shadow(Z, X, d, vertices)

        monkeypatch.setattr(functionals, "z_shadow_area", counted)
        return rows

    # most: the grid rows the parent evaluated, its 128 coarse rows and those
    # left after them
    @pytest.mark.parametrize("name, B, most", [
        ("icosphere2", fixtures.icosphere(2), 234),
        ("zonotope24", fixtures.random_zonotope(np.random.default_rng(24), 24), 192),
        ("hull100", _sphere_hull(100, 100), 141)])
    def test_few_grid_rows_left_to_evaluate(self, monkeypatch, name, B, most):
        rows = self._rows(monkeypatch)
        rep = invariants(B, refine=0, want=("P", "M", "m"))
        # the candidates, then the axes, with their vertices, which bound every grid row
        assert rows["vertices"] == [len(B.candidates), 3]
        assert sum(rows["exact"]) <= most
        X = np.vstack([fibonacci_sphere(2048), np.eye(3), B.candidates])
        assert rep.m == pytest.approx(np.min(ratio(B, X)), rel=1e-14)

    def test_cylinder_keeps_every_row(self, monkeypatch):
        # its ratio is 8 in every direction, to rounding: no bound can drop a row
        rows = self._rows(monkeypatch)
        invariants(fixtures.cylinder_profile(), refine=0, want=("m",))
        assert sum(rows["exact"]) == 2048

    def test_memory_is_bounded_at_the_grid_cap(self):
        # m at compute's largest --grid on icosphere3 (640 generators of Pi B):
        # the grid's rows, supports and bounds, and shadows in chunks
        B = fixtures.icosphere(3)
        tracemalloc.start()
        try:
            rep = invariants(B, grid=GRID_MAX, want=("M", "m"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert 6.0 <= rep.m <= rep.M

    @pytest.mark.parametrize("want", [("m",), ("m", "Q")])
    def test_small_bodies_and_Q_take_the_full_grid(self, monkeypatch, want):
        # nothing is pruned for a body whose Pi^2 B has no more facet normals
        # than the grid has rows: it reads all of them in one call, with or
        # without Q; Q, whose bound is the ratio on every row, takes the
        # candidates' ratios in one call and the grid's and the axes' in
        # another
        rows = self._rows(monkeypatch)
        small = fixtures.random_symmetric_polytope(np.random.default_rng(6), 6)
        normals = functionals._pi2_normals(small)
        assert invariants(small, grid=256, refine=0, want=want).m_source == "pi2 normals"
        grid = [len(small.candidates), 256 + 3] * ("Q" in want)
        assert rows == {"exact": grid + [len(normals)], "vertices": []}
        rows["exact"].clear()
        large = fixtures.icosphere(2)
        assert invariants(large, grid=256, refine=0, want=want).m_source == "grid"
        assert rows["vertices"] == ([] if "Q" in want else [len(large.candidates), 3])
        if "Q" in want:
            assert rows["exact"] == [len(large.candidates), 256 + 3]


class TestInvariants:
    def test_cube_all_eight(self):
        rep = invariants(fixtures.cube_zonotope(), grid=512, refine=20)
        assert rep.P == pytest.approx(8.0, abs=1e-12)
        assert rep.M == pytest.approx(8.0, abs=1e-9)
        assert rep.m == pytest.approx(8.0, abs=1e-9)
        assert rep.Q == pytest.approx(8.0, abs=1e-5)

    def test_ball_values(self):
        rep = invariants(Ball())
        assert rep.P == pytest.approx(BALL_RATIO, rel=1e-15)
        assert rep.Q == pytest.approx(BALL_RATIO, rel=1e-15)

    def test_octahedron(self, octahedron):
        rep = invariants(octahedron, grid=512, refine=20)
        assert rep.P == pytest.approx(9.0, abs=1e-12)
        assert rep.m == pytest.approx(6.0, abs=1e-6)
        assert np.max(np.abs(np.abs(rep.m_dir) - np.array([1, 0, 0]))) < 1e-6 \
            or np.max(np.abs(np.sort(np.abs(rep.m_dir)) - np.array([0, 0, 1]))) < 1e-6
        # the window of compute's near-lower-equality row
        assert abs(rep.m - 6.0) <= 1e-6

    def test_sanity_chain(self, rng):
        # P >= m - 1e-6 and P >= Q - 1e-6 on random symmetric bodies
        for _ in range(10):
            P = fixtures.random_symmetric_polytope(rng, 6)
            rep = invariants(P, grid=128, refine=10)
            assert rep.P >= rep.m - 1e-6
            assert rep.P >= rep.Q - 1e-6
            assert rep.m <= rep.M

    def test_asymmetric_Mm_rejected(self, tetrahedron):
        with pytest.raises(SymmetryError):
            invariants(tetrahedron, grid=64, want=("M", "m"))
        rep = invariants(tetrahedron, grid=64, refine=5, want=("P", "Q"))
        assert rep.P == pytest.approx(18.0, abs=1e-9)

    def test_grid_doubling_stability(self):
        # M does not decrease and m does not increase when the grid doubles
        Z = fixtures.cube_zonotope()
        r1 = invariants(Z, grid=512, refine=20, want=("M", "m"))
        r2 = invariants(Z, grid=1024, refine=20, want=("M", "m"))
        assert r2.M >= r1.M - 1e-6
        assert r2.m <= r1.m + 1e-6

    @pytest.mark.parametrize("kwargs", [
        {"want": ("X",)}, {"want": ("M", "Q", "p")}, {"want": "Q,M"}, {"want": "M"},
        {"refine": -3}, {"refine": 2.5}, {"refine": 2.0}, {"grid": 100.5},
        {"grid": 64.0}, {"grid": "64"}])
    def test_bad_arguments_rejected(self, kwargs):
        # an unknown name, a bare string (read letter by letter), a negative
        # refinement count and a grid or refinement count that is no integer
        # are errors, not empty, partial or silently rounded reports
        kwargs = {"grid": 64, **kwargs}
        with pytest.raises(InputError):
            invariants(fixtures.cube_zonotope(), **kwargs)

    @pytest.mark.parametrize("t", [1e-4, 1e-6, 1e-8, 1e-10])
    def test_flat_box_m_is_8(self, t):
        # a box is a parallelepiped, ratio 8 in every direction: its crosses
        # near the thin axis are short, but real
        box = convex_hull(np.array(list(itertools.product([-1.0, 1.0], [-1.0, 1.0],
                                                          [-t, t]))), symmetric=True)
        assert invariants(box, want=("m",)).m == pytest.approx(8.0, rel=1e-12)

    @pytest.mark.parametrize("t", [1e-4, 1e-7, 1e-9, 1e-11])
    def test_flat_parallelepiped_m_is_8(self, t):
        Z = GeneratorSet(np.diag([1.0, 1.0, t]))
        assert invariants(Z, want=("m",)).m == pytest.approx(8.0, rel=1e-12)

    def test_integer_like_counts_accepted(self):
        # numpy integers pass operator.index
        rep = invariants(fixtures.cube_zonotope(), grid=np.int64(64), refine=np.int32(2),
                         want=("M", "m"))
        assert rep.M == pytest.approx(8.0, abs=1e-9) and rep.m == pytest.approx(8.0, abs=1e-9)

    def test_report_holds_values_and_directions(self):
        assert InvariantReport._fields == ("P", "M", "m", "Q", "M_dir", "m_dir", "Q_dir",
                                           "m_source")


# --- exact M ---------------------------------------------------------------------

def _exact_M_bodies():
    """Random zonotopes of at most 8 generators and hulls of at most 12 pairs,
    the cylinder, and a flattened zonotope."""
    rng = np.random.default_rng(21)
    bodies = [fixtures.random_zonotope(rng, n) for n in (3, 5, 8, 8)]
    bodies += [fixtures.random_symmetric_polytope(rng, n) for n in (4, 7, 12, 12)]
    bodies.append(fixtures.cylinder_profile())
    bodies.append(GeneratorSet([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-8],
                                [1.0, 1.0, 1e-8]]))
    return bodies


_EXACT_M_IDS = ["zonotope3", "zonotope5", "zonotope8a", "zonotope8b", "hull4", "hull7",
                "hull12a", "hull12b", "cylinder", "flattened"]


@pytest.mark.parametrize("B", _exact_M_bodies(), ids=_EXACT_M_IDS)
def test_M_is_the_max_at_the_candidates(B, monkeypatch):
    # M reads no grid and no refinement: it is the largest ratio at the
    # candidates, which hold every facet normal, and M_dir attains it
    def never(*args):
        raise AssertionError("M alone evaluated a grid or refined")

    monkeypatch.setattr(functionals, "fibonacci_sphere", never)
    monkeypatch.setattr(functionals, "_chart_refine", never)
    rep = invariants(B, want=("M",))
    cands = functionals._realized(B).candidates
    assert rep.M == np.max(ratio(B, cands))
    assert any(np.array_equal(rep.M_dir, c) for c in cands)
    assert ratio(B, rep.M_dir) == pytest.approx(rep.M, rel=1e-14)


def _bench_bodies():
    """The benchmark's exact-pmm zonotopes (8-24 generators) and sphere hulls
    (20-100 pairs) at its seed 2, and the bundled symmetric fixtures."""
    rng = np.random.default_rng(np.random.SeedSequence([2, sum(map(ord, "exact-pmm"))]))
    bodies = [(f"zonotope{n}", GeneratorSet(rng.standard_normal((n, 3))))
              for n in (8, 10, 12, 14, 16, 20, 24)]
    for n in (20, 30, 40, 60, 100):
        p = rng.standard_normal((n, 3))
        p /= np.linalg.norm(p, axis=1)[:, None]
        bodies.append((f"hull{n}", convex_hull(np.vstack([p, -p]), symmetric=True)))
    bodies += [("cube", fixtures.cube()), ("cube-zonotope", fixtures.cube_zonotope()),
               ("octahedron", fixtures.octahedron()), ("icosphere1", fixtures.icosphere(1)),
               ("icosphere2", fixtures.icosphere(2)), ("cylinder", fixtures.cylinder_profile()),
               ("double-cone", fixtures.double_cone_profile()), ("ball", fixtures.ball())]
    return [pytest.param(B, id=name) for name, B in bodies]


@pytest.mark.parametrize("B", _bench_bodies())
def test_M_reads_the_same_bits_whatever_else_is_wanted(B):
    # M takes the candidates in a call of its own, with or without the
    # vertices a grid m bounds its grid by, and with or without Q's bound
    wants = [("M",), ("M", "m"), ("M", "Q"), ("P", "M", "m", "Q")]
    M = [invariants(B, want=want).M for want in wants]
    assert M == [M[0]] * len(wants)


@pytest.mark.parametrize("B", _exact_M_bodies(), ids=_EXACT_M_IDS)
def test_no_direction_exceeds_M(B):
    # the ratio peaks at a facet normal, so 200,000 random directions never
    # read above M beyond rounding; the flattened zonotope stays within the
    # zonoid bound 8
    M = invariants(B, want=("M",)).M
    X = np.random.default_rng(5).standard_normal((200_000, 3))
    assert np.max(ratio(B, X)) <= M * (1.0 + 1e-12)
    if isinstance(B, GeneratorSet):
        assert M <= 8.0 * (1.0 + 1e-9)


def test_M_with_m_reads_the_grids_candidate_rows():
    # M from the tail of the grid that m shares agrees with M alone
    rng = np.random.default_rng(8)
    for B in (fixtures.random_zonotope(rng, 7), fixtures.random_symmetric_polytope(rng, 9)):
        both, alone = invariants(B, grid=256, want=("M", "m")), invariants(B, want=("M",))
        assert both.M == pytest.approx(alone.M, rel=1e-15)
        assert np.array_equal(both.M_dir, alone.M_dir)


@pytest.mark.parametrize("case", range(12))
def test_M_is_sl3_invariant_on_the_suite_cases(case):
    # sl-invariance's seed-1 cases: a facet normal maps to a facet normal,
    # so exact M keeps its value to rounding
    B, T = _sl_cases(12, 1)[case]
    M0, M1 = (invariants(K, want=("M",)).M for K in (B, B.map_linear(T)))
    assert abs(M1 - M0) <= 1e-12 * M0


# --- exact m ---------------------------------------------------------------------

FLATTENED = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1e-8], [1.0, 1.0, 1e-8]]


def _exact_m_bodies():
    """The cubes, the octahedron, the flattened zonotope, Gaussian zonotopes of 3-5
    generators and symmetric hulls of 4-7 pairs."""
    rng = np.random.default_rng(28)
    bodies = [("cube", fixtures.cube()), ("octahedron", fixtures.octahedron()),
              ("cube-zonotope", fixtures.cube_zonotope()),
              ("flattened", GeneratorSet(FLATTENED))]
    bodies += [(f"zonotope{n}", fixtures.random_zonotope(rng, n)) for n in (3, 4, 5)]
    bodies += [(f"hull{n}", fixtures.random_symmetric_polytope(rng, n)) for n in (4, 5, 6, 7)]
    return [pytest.param(B, id=name) for name, B in bodies]


def _pair_cross_min(B):
    """The least ratio over the unit crosses of every pair of Pi^2 B's generators.

    The crosses are formed one pair at a time, not through pi2_rows; the
    generators are taken as unit rows first, which turns no cross.
    """
    G = B.pi_body.pi_body.gens
    G = G / np.linalg.norm(G, axis=1)[:, None]
    crosses = [np.cross(G[a], G[b]) for a, b in itertools.combinations(range(len(G)), 2)]
    U = np.array([c / np.linalg.norm(c) for c in crosses if np.any(c != 0.0)])
    return float(np.min(ratio(B, U)))


@pytest.mark.parametrize("B", _exact_m_bodies())
def test_m_is_the_least_ratio_at_the_facet_normals_of_pi2(B, monkeypatch):
    # m reads no grid row's ratio and no refinement: it is the oracle's
    # minimum, and no direction of a finer grid reads below it
    def never(*args):
        raise AssertionError("exact m refined")

    monkeypatch.setattr(functionals, "_chart_refine", never)
    rep = invariants(B, want=("m",))
    assert rep.m_source == "pi2 normals"
    oracle = _pair_cross_min(B)
    assert rep.m == pytest.approx(oracle, rel=1e-12)
    assert ratio(B, rep.m_dir) == pytest.approx(rep.m, rel=1e-14)
    assert np.min(ratio(B, fibonacci_sphere(100_000))) >= rep.m * (1.0 - 1e-12)


@pytest.mark.parametrize("seed, case", [(1, 5), (3, 7), (7, 6)])
def test_sl_invariance_of_exact_m(seed, case):
    # the failing sl-invariance cases whose Pi^2 B has no more facet normals
    # than the grid has rows; the grid read 2.8e-3, 1.6e-3 and 1.4e-2
    B, T = _sl_cases(12, seed)[case]
    assert sl_invariance_check(B, T) <= 1e-12


def test_flattened_zonotope_m_is_7():
    # the grid read 7.999547739094794, in the body's own frame
    assert invariants(GeneratorSet(FLATTENED), want=("m",)).m == pytest.approx(7.0, abs=1e-9)


def test_zonotope_hull_is_built_once(monkeypatch):
    calls = []
    build = zonotope.zonotope_vertices
    monkeypatch.setattr(zonotope, "zonotope_vertices", lambda Z: calls.append(1) or build(Z))
    Z = fixtures.random_zonotope(np.random.default_rng(5), 6)
    values = [q_direction(Z, E1 + k * E3) for k in range(3)]
    invariants(Z, grid=64, refine=3, want=("Q",))
    assert len(calls) == 1
    monkeypatch.undo()
    assert values == [q_direction(GeneratorSet(Z.gens), E1 + k * E3) for k in range(3)]


def test_revolution_polytope_is_built_once(monkeypatch):
    calls = []
    build = revolution.rev_to_polytope
    monkeypatch.setattr(revolution, "rev_to_polytope", lambda R: calls.append(1) or build(R))
    R = fixtures.cylinder_profile()
    for _ in range(3):
        ratio(R, E1)
        q_direction(R, E1)
        petty_value(R)
        polar_volume(R)
    assert len(calls) == 1


class TestLimits:
    def test_table(self):
        assert {k: (v.constant, v.upper) for k, v in LIMITS.items()} == \
            {"M": (8.0, True), "m": (6.0, False), "Q": (6.0, False)}
        assert LIMIT_MARGIN == 1e-9

    @pytest.mark.parametrize("name, value", [
        ("M", 8.0), ("M", 8.0 + 1e-9), ("M", 5.0), ("m", 6.0 - 1e-9), ("m", 9.0),
        ("Q", 6.0 - 1e-9), ("P", 1.0), ("t/s", 2.0), ("m", None)])
    def test_within_passes(self, name, value):
        check_limit(name, value, fixtures.cube_zonotope())

    @pytest.mark.parametrize("name, value", [
        ("M", 8.0 + 2e-9), ("m", 6.0 - 2e-9), ("Q", 5.0), ("M", math.nan), ("m", math.nan)])
    def test_beyond_raises_one_line(self, name, value):
        with pytest.raises(LimitError) as exc:
            check_limit(name, value, fixtures.cube_zonotope(), label="run: ")
        msg = str(exc.value)
        assert "\n" not in msg and msg.startswith(f"run: {name} = ")
        assert f" {LIMITS[name].constant:g} on " in msg

    def test_class_of_the_body(self, octahedron, tetrahedron):
        # M <= 8 holds for bodies flagged zonoid (zonotopes, the ball), m >= 6
        # and Q >= 6 for symmetric ones; no body stands for one of the class
        assert GeneratorSet(np.eye(3)).zonoid and Ball().zonoid
        assert not hasattr(octahedron, "zonoid") and not tetrahedron.symmetric
        check_limit("M", 9.0, octahedron)
        check_limit("Q", 5.0, tetrahedron)
        for name, value in (("M", 9.0), ("Q", 5.0)):
            with pytest.raises(LimitError):
                check_limit(name, value)


class TestSLInvariance:
    def test_identity_map(self):
        dev = sl_invariance_check(fixtures.cube_zonotope(), np.eye(3))
        assert dev == 0.0

    def test_cube_shear(self):
        T = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        dev = sl_invariance_check(fixtures.cube_zonotope(), T)
        assert dev < 1e-4

    def test_octahedron_diag(self, octahedron):
        dev = sl_invariance_check(octahedron, np.diag([2.0, 0.5, 1.0]))
        assert dev < 1e-4

    def test_non_unimodular_rejected(self):
        with pytest.raises(InputError):
            sl_invariance_check(fixtures.cube_zonotope(), 2.0 * np.eye(3))


def _unimodular(rng):
    """Random T with det T = 1, singular values within a factor e^2 of each other."""
    U, V = (np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(2))
    T = (U * np.exp(rng.uniform(-1.0, 1.0, 3))) @ V
    if np.linalg.det(T) < 0.0:
        T[0] = -T[0]
    return T / np.linalg.det(T) ** (1.0 / 3.0)


@given(st.integers(0, 2**32 - 1), st.sampled_from(["zonotope", "hull"]))
@settings(max_examples=60, deadline=None)
def test_evaluators_are_sl3_covariant(seed, kind):
    # ratio(TK, y) = ratio(K, T^T y), and likewise q, for det T = 1; rounding
    # in the determinant sums grows with the condition number of the body's
    # points, which random zonotopes take into the thousands
    rng = np.random.default_rng(seed)
    if kind == "zonotope":
        K = fixtures.random_zonotope(rng, int(rng.integers(3, 8)))
        pts = K.gens
    else:
        K = fixtures.random_symmetric_polytope(rng, int(rng.integers(4, 11)))
        pts = K.vertices
    sv = np.linalg.svd(pts, compute_uv=False)
    rel = 1e-12 * max(1.0, sv[0] / sv[2] / 100.0)
    T = _unimodular(rng)
    TK, Y = K.map_linear(T), rng.standard_normal((20, 3))
    for fn in (ratio, q_direction):
        assert fn(TK, Y) == pytest.approx(fn(K, Y @ T), rel=rel)


class TestClassReduction:
    def test_P_of_projection_body_not_larger(self, rng):
        for _ in range(30):
            if rng.random() < 0.5:
                B = fixtures.random_zonotope(rng, int(rng.integers(3, 7)))
            else:
                B = fixtures.random_symmetric_polytope(rng, int(rng.integers(4, 9)))
            assert petty_value(B.pi_body) <= petty_value(B) * (1.0 + 1e-9)

    def test_projection_mixed_volume_bound(self, rng):
        # V(Pi L, Pi K) <= 8 V(K) V(K, L) for zonotope pairs
        from pettylab import z_volume
        for _ in range(40):
            K = fixtures.random_zonotope(rng, int(rng.integers(3, 7)))
            L = fixtures.random_zonotope(rng, int(rng.integers(3, 7)))
            lhs = mixed_volume(L.pi_body, K.pi_body)
            rhs = 8.0 * z_volume(K) * mixed_volume(K, L)
            assert lhs <= rhs * (1.0 + 1e-9)


def test_petty_fixture_values(cube, octahedron, tetrahedron):
    assert petty_value(cube) == pytest.approx(8.0, abs=1e-12)
    assert petty_value(octahedron) == pytest.approx(9.0, abs=1e-12)
    assert petty_value(tetrahedron) == pytest.approx(18.0, abs=1e-9)
    assert petty_value(Ball()) == pytest.approx(BALL_RATIO, rel=1e-15)


# --- chart refinement -----------------------------------------------------------

def _scipy_nelder_mead(g, steps):
    """scipy's Nelder-Mead on g with the options of the chart refinement."""
    return minimize(g, np.zeros(2), method="Nelder-Mead",
                    options={"maxiter": steps, "xatol": 1e-9, "fatol": 1e-12,
                             "initial_simplex": [[0.0, 0.0], [0.04, 0.0], [0.0, 0.04]]})


@pytest.mark.parametrize("steps", [1, 2, 7, 50, 400])
@pytest.mark.parametrize("g", [
    lambda p: (p[0] - 0.3) ** 2 + 2.0 * (p[1] + 0.1) ** 2,
    lambda p: 100.0 * (p[1] - p[0] ** 2) ** 2 + (1.0 - p[0]) ** 2,
    lambda p: abs(p[0] - 0.01) + 3.0 * abs(p[1] + 0.02),
    lambda p: 1.0,
    lambda p: np.floor(40.0 * (p[0] - 0.013)) ** 2 + np.floor(40.0 * (p[1] + 0.027)) ** 2,
    lambda p: np.floor(100.0 * (p[0] ** 2 + p[1] ** 2)) - np.floor(30.0 * (p[0] + 2.0 * p[1])),
], ids=["quadratic", "rosenbrock", "kinked", "constant", "terraced", "stairs"])
def test_nelder_mead_takes_scipys_steps(g, steps):
    # g gives a point the same value in a batch as alone, so every move and
    # the result are scipy's to the bit: the constant takes only shrinks,
    # the kinked function shrinks at its kinks, the terraced and stairs ones
    # tie their trial values, the quadratic converges
    calls, asked, scipy_asked = [], [], []

    def f(points):
        calls.append(len(points))
        asked.extend(points)
        return [g(np.array(p)) for p in points]

    def g_alone(p):
        scipy_asked.append(tuple(p))
        return g(p)

    t, v = _nelder_mead(f, steps)
    res = _scipy_nelder_mead(g_alone, steps)
    assert t == tuple(res.x) and v == res.fun
    # scipy's points, in its order, among the trial points
    rest = iter(asked)
    assert all(p in rest for p in scipy_asked)
    assert calls[0] == 3 and set(calls[1:]) <= {2, 4} and len(calls) <= 2 * steps - 1


def _oracle_bodies():
    rng = np.random.default_rng(2024)
    bodies = [fixtures.cube(), fixtures.cube_zonotope(), fixtures.octahedron(),
              fixtures.icosphere(1), rev_to_polytope(fixtures.cylinder_profile())]
    bodies += [fixtures.random_zonotope(rng, n) for n in (4, 7, 12, 14)]
    bodies += [fixtures.random_symmetric_polytope(rng, n) for n in (5, 12, 30)]
    return bodies


@pytest.mark.parametrize("B", _oracle_bodies(), ids=[
    "cube", "cube-zonotope", "octahedron", "icosphere1", "cylinder",
    "zonotope4", "zonotope7", "zonotope12", "zonotope14", "hull5", "hull12", "hull30"])
def test_chart_refine_reaches_scipys_value(B):
    # scipy's Nelder-Mead on the same chart function, built here from
    # plane_basis, one point a call, from the grid extrema of M and m, and of
    # Q on the smaller bodies
    rep = invariants(B, grid=256, refine=0, want=("M", "m", "Q"))
    cases = [(ratio, B, rep.M_dir, True), (ratio, B, rep.m_dir, False)]
    if len(B.pi_body) <= 12:
        cases.append((q_direction, B, rep.Q_dir, True))
    for fn, body, x0, maximize in cases:
        F = np.column_stack([x0, *plane_basis(unitize(x0))])
        sign = -1.0 if maximize else 1.0
        res = _scipy_nelder_mead(lambda th: sign * fn(body, np.array([[1.0, *th]]) @ F.T)[0],
                                 50)
        x, v = _chart_refine(lambda X: fn(body, X), x0, sign * np.inf, maximize, 50)
        assert v == pytest.approx(sign * res.fun, rel=1e-12)
        assert fn(body, x) == pytest.approx(v, rel=1e-12)
