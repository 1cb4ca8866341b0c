"""Steiner/Schwartz symmetrization: exactness, monotonicity, rounding."""

import math
import tracemalloc

import numpy as np
import pytest

from pettylab import (FlatBodyError, InputError, SymmetryError, axis_ratio,
                      chord_profile, convex_hull, q_direction, ratio, schwartz,
                      steiner, steiner_projection_monotonicity)
from pettylab.geom import unitize
from pettylab.revolution import rev_volume
from pettylab.suites import _rng
from pettylab.symmetrize import _projected_edge_crossings, roundness, steiner_rounding_run
from pettylab import fixtures, geom

E1, E2, E3 = np.eye(3)


class TestChordProfile:
    def test_cube_profile(self, cube):
        prof = chord_profile(cube, E3)
        assert np.all(prof.g >= prof.f)
        assert np.all(prof.w >= 0.0)
        assert prof.w.max() == pytest.approx(1.0, abs=1e-12)

    def test_midpoint_recentring(self, cube):
        shifted = convex_hull(cube.vertices + np.array([0.0, 0.0, 3.0]))
        prof = chord_profile(shifted, E3)
        assert np.allclose(prof.u[prof.w > 1e-9], 3.0, atol=1e-9)


class TestSteiner:
    def test_cube_fixed_point(self, cube):
        S = steiner(cube, E3)
        assert S.volume == pytest.approx(8.0, rel=1e-12)
        assert sorted(np.round(S.vertices[:, 2], 9).tolist()).count(-1.0) == 4

    def test_shifted_cube_recentres(self, cube):
        shifted = convex_hull(cube.vertices + np.array([1.0, 1.0, 1.0]))
        S = steiner(shifted, E3)
        assert S.volume == pytest.approx(8.0, rel=1e-12)
        assert S.vertices[:, 2].min() == pytest.approx(-1.0, abs=1e-12)
        assert S.vertices[:, 2].max() == pytest.approx(1.0, abs=1e-12)
        # x/y extent untouched
        assert S.vertices[:, 0].max() == pytest.approx(2.0, abs=1e-12)

    def test_tetrahedron_volume_and_shape(self, tetrahedron):
        S = steiner(tetrahedron, E3)
        assert S.volume == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert S.vertices[:, 2].max() == pytest.approx(0.5, abs=1e-12)

    def test_crossed_edges_need_crossing_samples(self):
        # top edge along x, bottom edge along y: every vertex chord is a point,
        # yet the body has volume; the edge-crossing sample carries all of it
        P = convex_hull([[1, 0, 1], [-1, 0, 1], [0, 1, -1], [0, -1, -1]])
        S = steiner(P, E3)
        assert S.volume == pytest.approx(P.volume, rel=1e-9)

    def test_volume_preserved_random(self, rng):
        for _ in range(100):
            P = fixtures.random_symmetric_polytope(rng, int(rng.integers(4, 11)))
            nu = rng.standard_normal(3)
            nu /= np.linalg.norm(nu)
            S = steiner(P, nu)
            assert S.volume == pytest.approx(P.volume, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-30, 1e20, 1e30])
    def test_volume_preserved_at_any_scale(self, rng, scale):
        # chords compare cosines with the direction, not lengths: a body far
        # from unit size still finds its chords
        P = fixtures.random_symmetric_polytope(rng, 8)
        big = convex_hull(scale * P.vertices, symmetric=True)
        S = steiner(big, unitize(rng.standard_normal(3)))
        assert S.volume == pytest.approx(big.volume, rel=1e-9)

    def test_reflection_symmetry(self, rng):
        for _ in range(20):
            P = fixtures.random_symmetric_polytope(rng, 6)
            S = steiner(P, E3)
            refl = S.vertices * np.array([1.0, 1.0, -1.0])
            d = np.sqrt(((refl[:, None, :] - S.vertices[None, :, :]) ** 2).sum(-1))
            assert d.min(axis=1).max() <= 1e-9

    def test_idempotence(self, rng):
        P = fixtures.random_symmetric_polytope(rng, 8)
        S1 = steiner(P, E3)
        S2 = steiner(S1, E3)
        assert S2.volume == pytest.approx(S1.volume, rel=1e-9)
        d = np.sqrt(((S2.vertices[:, None, :] - S1.vertices[None, :, :]) ** 2).sum(-1))
        assert d.min(axis=1).max() <= 1e-7

    def test_memory_is_bounded(self, monkeypatch):
        # the roof-by-floor crossings and the base-by-facet chords go in
        # chunks: 300 pairs of unit vectors peaked at ~50 MiB in one pass
        p = np.random.default_rng(300).standard_normal((300, 3))
        p /= np.linalg.norm(p, axis=1)[:, None]
        P = convex_hull(np.vstack([p, -p]), symmetric=True)
        tracemalloc.start()
        try:
            S = steiner(P, E3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
        assert S.volume == pytest.approx(P.volume, rel=1e-9)
        # the chunks' crossings are those of one pass, in order, bit for bit
        e1, e2 = np.eye(3)[:2]
        chunked = _projected_edge_crossings(P, E3, e1, e2)
        monkeypatch.setattr(geom, "_CHUNK_BYTES", 2**40)
        assert np.array_equal(chunked, _projected_edge_crossings(P, E3, e1, e2))

    def test_flat_rejected(self):
        with pytest.raises((FlatBodyError, InputError)):
            convex_hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]])


class TestSchwartz:
    def test_octahedron_becomes_double_cone(self, octahedron):
        R = schwartz(octahedron, E3)
        assert R.a == pytest.approx(1.0, abs=1e-12)
        mid = np.searchsorted(R.s, 0.0)
        expect = math.sqrt(2.0 / math.pi)
        # profile is the exact tent sqrt(2/pi) (1 - |s|)
        assert np.max(np.abs(R.f - expect * (1.0 - np.abs(R.s)))) <= 1e-9

    def test_cube_becomes_cylinder(self, cube):
        R = schwartz(cube, E3)
        assert np.allclose(R.f, 2.0 / math.sqrt(math.pi), atol=1e-12)
        assert rev_volume(R) == pytest.approx(8.0, rel=1e-9)

    def test_icosphere_profile_near_circle(self):
        # pole caps of the inscribed mesh deviate most; interior is tight and
        # the deviation shrinks under refinement
        devs, interior_devs = [], []
        for level in (2, 3):
            P = fixtures.icosphere(level)
            R = schwartz(P, E3)
            circ = np.sqrt(np.maximum(0.0, 1.0 - R.s ** 2))
            devs.append(np.max(np.abs(R.f - circ)))
            interior = np.abs(R.s) <= 0.9
            interior_devs.append(np.max(np.abs(R.f - circ)[interior]))
        assert devs[1] < devs[0] < 0.1
        assert interior_devs[1] < 0.01
        assert interior_devs[1] < 0.5 * interior_devs[0]

    def test_volume_within_tenth_percent(self, rng):
        cases = []
        for _ in range(25):
            P = fixtures.random_symmetric_polytope(rng, int(rng.integers(4, 11)))
            cases.append((P, rng.standard_normal(3)))
        # 4 unit pairs whose 16-sample profile loses 0.1024% of the volume
        pairs = np.random.default_rng(np.random.SeedSequence([7, 686]))
        p = pairs.standard_normal((4, 3))
        p /= np.linalg.norm(p, axis=1)[:, None]
        cases.append((convex_hull(np.vstack([p, -p]), symmetric=True), pairs.standard_normal(3)))
        # sample 130 of verify schwartz-monotone at seed 42 (0.118% at 16 samples)
        drawn = _rng(42, "schwartz")
        for _ in range(131):
            P = fixtures.random_symmetric_polytope(drawn, int(drawn.integers(4, 11)))
            x = drawn.standard_normal(3)
        cases.append((P, x))
        for P, nu in cases:
            R = schwartz(P, unitize(nu))
            assert rev_volume(R) == pytest.approx(P.volume, rel=1e-3)

    def test_profile_concave_and_even(self, rng):
        P = fixtures.random_symmetric_polytope(rng, 9)
        R = schwartz(P, E3)
        slopes = np.diff(R.f) / np.diff(R.s)
        assert np.all(np.diff(slopes) <= 1e-9)
        assert np.max(np.abs(R.f - R.f[::-1])) <= 1e-12

    def test_asymmetric_rejected(self, tetrahedron):
        with pytest.raises(SymmetryError):
            schwartz(tetrahedron, E3)


class TestSteinerShadowMonotonicity:
    def test_cube_fixed(self, cube):
        before, after = steiner_projection_monotonicity(cube, E3, E1)
        assert before == pytest.approx(64.0, rel=1e-12)
        assert after == pytest.approx(before, rel=1e-12)

    def test_tetrahedron(self, tetrahedron):
        before, after = steiner_projection_monotonicity(tetrahedron, E3, E1)
        assert after <= before + 1e-9 * before

    def test_random_triples(self, rng):
        for _ in range(60):
            P = fixtures.random_symmetric_polytope(rng, int(rng.integers(4, 11)))
            nu = rng.standard_normal(3)
            nu /= np.linalg.norm(nu)
            h2 = rng.standard_normal(3)
            h2 /= np.linalg.norm(h2)
            if abs(np.dot(nu, h2)) > 1 - 1e-6:
                continue
            before, after = steiner_projection_monotonicity(P, nu, h2)
            assert after <= before * (1.0 + 1e-9)

    def test_degenerate_plane_rejected(self, cube):
        with pytest.raises(InputError):
            steiner_projection_monotonicity(cube, E3, E3)


class TestSchwartzRatioMonotonicity:
    """The ratio after Schwartz symmetrization about x is q(P, x) <= ratio(P, x)."""

    def test_octahedron_equality(self, octahedron):
        before, after = ratio(octahedron, E3), q_direction(octahedron, E3)
        assert before == pytest.approx(6.0, abs=1e-9)
        assert after == pytest.approx(6.0, abs=1e-9)
        assert after <= before + 1e-9

    def test_cube_equality(self, cube):
        before, after = ratio(cube, E3), q_direction(cube, E3)
        assert (before, after) == pytest.approx((8.0, 8.0), abs=1e-9)

    def test_random(self, rng):
        for _ in range(40):
            P = fixtures.random_symmetric_polytope(rng, int(rng.integers(4, 11)))
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            assert q_direction(P, x) <= ratio(P, x) + 1e-9

    def test_symmetral_axis_ratio_tracks_q(self, rng):
        # axis_ratio(R) / q = (I_R / I)^2 V(P) / V(R), I and I_R the integrals
        # of the true radius sqrt(A / pi) and of the sampled profile.  The
        # profile interpolates the concave radius from below, so I_R <= I and
        # V(R) <= V(P): above q it is off by at most V(P) / V(R) - 1, which
        # the 0.1% volume contract bounds by 1 / 0.999 - 1.  Below q, to first
        # order 2 dI/I - dV/V; the deficit sits mostly near the poles, where
        # the radius is small, and costs I up to about twice the share of
        # volume it costs (1.8 at most on these bodies, 1.95 on 200 others),
        # which gives 3 * 1e-3.  The worst seen here is -1.42e-3.
        bodies = [fixtures.cube(), fixtures.octahedron(), fixtures.icosphere(1)]
        bodies += [fixtures.random_symmetric_polytope(rng, int(rng.integers(4, 11)))
                   for _ in range(100)]
        for P in bodies:
            for x in rng.standard_normal((2, 3)):
                rel = axis_ratio(schwartz(P, x)) / q_direction(P, x) - 1.0
                assert -3e-3 <= rel <= 1.0 / 0.999 - 1.0


class TestRounding:
    def test_roundness_of_ball_mesh(self):
        r = roundness(fixtures.icosphere(2))
        assert 1.0 <= r < 1.02

    def test_iterated_steiner_trend(self, rng):
        P = fixtures.random_symmetric_polytope(rng, 8)
        # stretch it so the trend is unambiguous
        P = convex_hull(P.vertices * np.array([3.0, 1.0, 0.5]), symmetric=True)
        _, trace = steiner_rounding_run(P, steps=60, seed=4)
        assert trace[-1] < 0.6 * trace[0]
        assert trace[-1] < 1.5
