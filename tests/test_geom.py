"""Core geometry: cross products, hulls, supports, chords, slices, grids."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from pettylab import (FlatBodyError, InputError, Polytope, chords, convex_hull,
                      fibonacci_sphere, fixtures, geom, slice_area, z_volume)
from pettylab.geom import _BAND, _TAU, plane_basis, slice_quadratics
from pettylab.zonotope import pair_crosses

E1, E2, E3 = np.eye(3)


class TestWedgeAndDet:
    """The 3-D wedge (pair_crosses) and the determinant sum behind z_volume."""

    def test_wedge_orthonormal_frame(self):
        assert np.allclose(pair_crosses([E1, E2]), [E3])

    def test_wedge_repeated_argument(self):
        assert pair_crosses([E1, E1]).shape == (0, 3)

    def test_wedge_hand_cofactor(self):
        # cofactor expansion of ((1,0,0),(1,1,0)) gives (0,0,1)
        assert np.allclose(pair_crosses([[1, 0, 0], [1, 1, 0]]), [[0, 0, 1]])

    def test_wedge_dimension_mismatch(self):
        with pytest.raises(InputError):
            pair_crosses([[1, 0], [0, 1]])

    def test_det_identity(self):
        assert z_volume(np.eye(3)) == 8.0

    def test_det_dependent(self):
        assert z_volume([E1, E2, E1 + E2]) == 0.0

    def test_det_hand_cofactor(self):
        # det = -4: one triple, so V = 8 |det|
        assert z_volume([[1, 1, 1], [1, 1, -1], [1, -1, 1]]) == 32.0

    def test_det_dimension_mismatch(self):
        with pytest.raises(InputError):
            z_volume([[1, 0], [0, 1]])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_lagrange_identity(self, seed):
        # 8 |<a x b, y>| = V of the parallelepiped zonotope {a, b, y}, relative 1e-12
        rng = np.random.default_rng(seed)
        a, b, y = rng.standard_normal((3, 3))
        lhs = 8.0 * abs(float(pair_crosses([a, b])[0] @ y))
        rhs = z_volume([a, b, y])
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


class TestConvexHull:
    def test_cube(self, cube):
        assert len(cube.facets) == 12
        assert cube.volume == pytest.approx(8.0, abs=1e-12)

    def test_octahedron_volume(self, octahedron):
        # cross-polytope volume 2^d / d!
        assert octahedron.volume == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_coplanar_rejected(self):
        pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]
        with pytest.raises(FlatBodyError):
            convex_hull(pts)

    def test_too_few_points(self):
        with pytest.raises(InputError):
            convex_hull([[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_hull_idempotent(self, rng):
        pts = rng.standard_normal((30, 3))
        P = convex_hull(pts)
        Q = convex_hull(P.vertices)
        assert Q.volume == pytest.approx(P.volume, rel=1e-12)

    def test_interior_points_dropped(self, rng):
        pts = np.vstack([rng.standard_normal((20, 3)), [[0.0, 0.0, 0.0]]])
        P = convex_hull(pts * 3.0)
        d = P.facet_offsets - P.facet_normals @ np.zeros(3)
        assert np.all(d > 0)  # origin strictly inside, not a vertex

    def test_volume_matches_qhull(self, rng):
        for _ in range(20):
            pts = rng.standard_normal((15, 3))
            P = convex_hull(pts)
            assert P.volume == pytest.approx(ConvexHull(pts).volume, rel=1e-12)


class TestFacetData:
    def test_cube_facets(self, cube):
        normals, areas = cube.surface_measure()
        assert np.allclose(areas, 2.0)
        axis_weight = np.abs(normals).sum(axis=1)
        assert np.allclose(axis_weight, 1.0)  # all +-e_i

    def test_octahedron_facets(self, octahedron):
        normals, areas = octahedron.surface_measure()
        assert np.allclose(areas, math.sqrt(3.0) / 2.0)
        assert np.allclose(np.abs(normals), 1.0 / math.sqrt(3.0))

    def test_tetrahedron_areas(self, tetrahedron):
        _, areas = tetrahedron.surface_measure()
        assert sorted(np.round(areas, 12)) == pytest.approx(
            [0.5, 0.5, 0.5, math.sqrt(3.0) / 2.0], abs=1e-12)

    def test_closedness_random(self, rng):
        # sum of area-weighted normals vanishes on 100 random hulls
        for _ in range(100):
            P = convex_hull(rng.standard_normal((12, 3)))
            normals, areas = P.surface_measure()
            resid = np.linalg.norm((normals * areas[:, None]).sum(axis=0))
            assert resid <= 1e-9 * areas.sum()


class TestSupport:
    def test_cube_axis(self, cube):
        assert cube.support(E1) == 1.0

    def test_octahedron_diagonal(self, octahedron):
        u = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        assert octahedron.support(u) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)

    def test_homogeneity(self, cube):
        assert cube.support([1, 1, 1]) == 3.0

    def test_batch_matches_scalar(self, rng, octahedron):
        X = rng.standard_normal((40, 3))
        vals = octahedron.support(X)
        for x, v in zip(X, vals):
            assert octahedron.support(x) == pytest.approx(v, rel=1e-14)

    def test_memory_is_bounded(self):
        # icosphere3's 642 vertices times 100,000 directions are 0.5 GB of
        # products at once; chunked they stay near 1 MiB, beside the 0.8 MB
        # of values
        P, X = fixtures.icosphere(3), fibonacci_sphere(100_000)
        tracemalloc.start()
        try:
            vals = P.support(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        # every value, against products of 1,000 directions at a time, to
        # the rounding of a 3-term product
        want = np.concatenate([np.max(P.vertices @ X[i:i + 1000].T, axis=0)
                               for i in range(0, len(X), 1000)])
        assert vals == pytest.approx(want, rel=1e-15)
        assert np.array_equal(P.support(np.empty((0, 3))), np.empty(0))


class TestSymmetryCheck:
    """A polytope flagged symmetric holds -v for each vertex v, to 1e-9 of its scale."""

    def test_threshold(self):
        # pushing a vertex out along its ray by 1e-8 of the scale takes the
        # reflection of its antipode past the facets there by 5.5e-9 of it;
        # 1e-10 stays within the tolerance
        P = fixtures.random_symmetric_polytope(np.random.default_rng(6), 30)
        scale = float(np.max(np.abs(P.vertices)))
        for shift in (1e-10, 1e-8):
            V = P.vertices.copy()
            V[0] += shift * scale * V[0] / np.linalg.norm(V[0])
            if shift < 1e-9:
                Polytope(V, P.facets, symmetric=True)
            else:
                with pytest.raises(InputError, match="not centrally symmetric"):
                    Polytope(V, P.facets, symmetric=True)

    def test_memory_is_bounded(self):
        # 2,000 pairs on the sphere give 4,000 vertices and 7,996 facets: their
        # vertex-by-facet products, less the offsets, took 488 MiB at once; the
        # check runs in the support's chunks of about 1 MiB
        p = np.random.default_rng(2000).standard_normal((2000, 3))
        p /= np.linalg.norm(p, axis=1)[:, None]
        P = convex_hull(np.vstack([p, -p]))
        tracemalloc.start()
        try:
            defect = P._symmetry_defect()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert defect <= 1e-9


class TestChord:
    def test_cube_axis(self, cube):
        f, g = chords(cube, np.zeros((1, 3)), E3)
        assert (f[0], g[0]) == (-1.0, 1.0)

    def test_octahedron_offset(self, octahedron):
        f, g = chords(octahedron, np.array([[0.5, 0, 0]]), E3)
        assert (f[0], g[0]) == pytest.approx((-0.5, 0.5), abs=1e-12)

    def test_miss(self, cube):
        f, g = chords(cube, np.array([[2.0, 0, 0], [0.5, 0, 0]]), E3)
        assert np.isnan(f[0]) and np.isnan(g[0])
        assert (f[1], g[1]) == (-1.0, 1.0)

    def test_endpoints_on_boundary(self, rng):
        # both returned points must satisfy every facet plane to 1e-9
        for _ in range(25):
            P = convex_hull(rng.standard_normal((14, 3)))
            base = P.vertices.mean(axis=0)
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            (f,), (g,) = chords(P, base[None, :], d)
            scale = np.max(np.abs(P.vertices))
            for t in (f, g):
                p = base + t * d
                gaps = P.facet_offsets - P.facet_normals @ p
                assert gaps.min() >= -1e-9 * scale
                assert gaps.min() <= 1e-7 * scale  # actually touches the boundary


def _slice_area_loop(P, x, s):
    """Facet-by-facet reference for the vectorized slice_area."""
    u = np.asarray(x, dtype=float) / np.linalg.norm(x)
    s = float(s) / np.linalg.norm(x)
    scale = float(np.max(np.abs(P.vertices))) or 1.0
    if s >= float(P.support(u)) - 1e-14 * scale or s <= -float(P.support(-u)) + 1e-14 * scale:
        return 0.0
    heights = P.vertices @ u
    tol = 1e-12 * scale
    total = 0.0
    for tri, tdir in zip(P.facets, np.cross(u, P.facet_normals)):
        hv = heights[tri] - s
        pts = []
        on_plane = 0
        for i in range(3):
            j = (i + 1) % 3
            if abs(hv[i]) <= tol:
                pts.append(P.vertices[tri[i]])
                on_plane += 1
            elif hv[i] * hv[j] < 0.0 and abs(hv[j]) > tol:
                t = hv[i] / (hv[i] - hv[j])
                pts.append(P.vertices[tri[i]] + t * (P.vertices[tri[j]] - P.vertices[tri[i]]))
        if len(pts) < 2:
            continue
        weight = 0.5 if on_plane == 2 and len(pts) == 2 else 1.0
        proj = [np.dot(p, tdir) for p in pts]
        a = pts[int(np.argmin(proj))]
        b = pts[int(np.argmax(proj))]
        total += weight * 0.5 * np.dot(np.cross(a, b), u)
    return max(float(total), 0.0)


class TestSliceArea:
    def test_cube_equator(self, cube):
        assert slice_area(cube, E3, 0.0) == pytest.approx(4.0, rel=1e-12)

    def test_octahedron_half(self, octahedron):
        # square of area 2(1-|s|)^2 at s = 1/2
        assert slice_area(octahedron, E3, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_outside_is_zero(self, cube):
        assert slice_area(cube, E3, 2.0) == 0.0
        assert slice_area(cube, E3, 1.0) == 0.0  # |s| >= h on symmetric bodies

    def test_through_vertices(self, octahedron):
        # plane through four vertices still yields the full square
        assert slice_area(octahedron, E3, 0.0) == pytest.approx(2.0, rel=1e-12)

    def test_integrates_to_volume(self, rng):
        # the exact piece quadratics integrate to the volume:
        # sum over pieces of width w of w (a + b/2 + c/3)
        for _ in range(20):
            P = convex_hull(rng.standard_normal((12, 3)))
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            H, C = slice_quadratics(P, u)
            vol = np.sum(np.diff(H) * (C[:, 0] + C[:, 1] / 2.0 + C[:, 2] / 3.0))
            assert vol == pytest.approx(P.volume, rel=1e-12)

    def test_quadratics_match_scalar_slices(self, rng, cube, octahedron):
        # batched pieces against the scalar oracle inside every piece, with
        # tied heights (cube and octahedron along axes) giving empty pieces
        bodies = [convex_hull(rng.standard_normal((10, 3))) for _ in range(4)]
        for P in bodies + [cube, octahedron]:
            X = np.vstack([np.eye(3), rng.standard_normal((5, 3))])
            H, C = slice_quadratics(P, X)
            for x, h, c in zip(X, H, C):
                u = x / np.linalg.norm(x)
                for k in np.nonzero(np.diff(h) > 0.0)[0]:
                    for t in (0.25, 0.5, 0.75):
                        area = c[k, 0] + t * (c[k, 1] + t * c[k, 2])
                        s = h[k] + t * (h[k + 1] - h[k])
                        assert area == pytest.approx(slice_area(P, u, s), rel=1e-10, abs=1e-12)
                assert np.all(c[np.diff(h) == 0.0] == 0.0)

    def test_matches_facet_loop(self, rng, cube, octahedron):
        # seeded sphere hulls, the cube and the octahedron, at every vertex
        # height (tied ones included), between them and at random heights.
        # The per-facet terms are of size scale^2 and cancel in thin sections,
        # where the two may differ by a few ulps of scale^2
        bodies = [cube, octahedron]
        for seed in range(1, 4):
            p = np.random.default_rng(np.random.SeedSequence([seed, 686])).standard_normal((8, 3))
            p /= np.linalg.norm(p, axis=1)[:, None]
            bodies.append(convex_hull(np.vstack([p, -p]), symmetric=True))
        for P in bodies:
            scale = float(np.max(np.abs(P.vertices)))
            for x in np.vstack([np.eye(3), np.ones(3), rng.standard_normal((3, 3))]):
                x = x / np.linalg.norm(x)
                h = np.unique(P.vertices @ x)
                for s in np.concatenate([h, (h[1:] + h[:-1]) / 2.0,
                                         rng.uniform(h[0], h[-1], 4)]):
                    assert slice_area(P, x, s) == pytest.approx(
                        _slice_area_loop(P, x, s), rel=1e-14, abs=1e-14 * scale ** 2)


def _per_piece_quadratics(P, x):
    """Per-(facet, piece) reference for slice_quadratics along one direction x.

    Every facet adds (1/2) sigma det(A, B, u) to each piece it spans,
    expanded about that piece's lowest height: A on the edge from its lowest
    to its highest vertex, B on the edge of the segment (lowest to middle
    vertex, or middle to highest) the piece lies in, sigma the parity of the
    corners' order by height.  One facet and one piece at a time, no sums
    over vertex heights.
    """
    u = np.asarray(x, dtype=float) / np.linalg.norm(x)
    e1, e2 = plane_basis(u)
    h = P.vertices @ u
    z = P.vertices @ e1 + 1j * (P.vertices @ e2)
    order = np.argsort(h, kind="stable")
    H = h[order]
    rank = np.argsort(order)
    det = lambda a, b: (a.conjugate() * b).imag
    C = np.zeros((len(H) - 1, 3))
    for tri in P.facets:
        perm = np.argsort(rank[tri])
        sigma = 0.5 * round(np.linalg.det(np.eye(3)[perm]))
        lo, mid, hi = tri[perm]
        along = (z[hi] - z[lo]) / (h[hi] - h[lo]) if h[hi] > h[lo] else 0.0
        for p, q in ((lo, mid), (mid, hi)):
            edge = (z[q] - z[p]) / (h[q] - h[p]) if h[q] > h[p] else 0.0
            for k in range(rank[p], rank[q]):
                w = H[k + 1] - H[k]
                if w == 0.0:
                    continue
                A, B = z[lo] + (H[k] - h[lo]) * along, z[p] + (H[k] - h[p]) * edge
                C[k] += sigma * np.array([det(A, B), w * (det(A, edge) + det(along, B)),
                                          w * w * det(along, edge)])
    return H, C


def _rounding_bound(P):
    """slice_quadratics' stated bound: 4 F bands (1 + 1/_TAU)^2 eps R^2."""
    R2 = float(np.max(np.sum(P.vertices ** 2, axis=1)))
    bands = -(-len(P.vertices) // _BAND)
    return 4 * len(P.facets) * bands * (1.0 + 1.0 / _TAU) ** 2 * np.finfo(float).eps * R2


class TestSliceQuadratics:
    """The prefix-sum quadratics against the per-(facet, piece) reference."""

    def _check(self, P, X):
        H, C = slice_quadratics(P, X)
        bound = _rounding_bound(P)
        scale = float(np.max(np.abs(P.vertices)))
        for x, h, c in zip(X, H, C):
            h_ref, c_ref = _per_piece_quadratics(P, x)
            # heights round alike up to the order of the dot products
            assert np.max(np.abs(h - h_ref)) <= 4 * np.finfo(float).eps * scale
            assert np.max(np.abs(c - c_ref)) <= bound
            assert np.all(c[np.diff(h) == 0.0] == 0.0)

    def test_random_hulls(self, rng):
        for n in (5, 12, 30):
            self._check(convex_hull(rng.standard_normal((n, 3))), rng.standard_normal((6, 3)))

    def test_icosphere1_nearly_tied_heights(self):
        # pieces about 1e-7 wide, and segments on both sides of the threshold
        self._check(fixtures.icosphere(1), np.array([[-9.3e-8, -0.934, -0.357], [0.3, 0.2, 1.0]]))

    def test_several_bands(self, rng):
        # icosphere2 (162 vertices) and a 150-point hull take three bands,
        # icosphere3 eleven: segments shifted across band edges
        self._check(fixtures.icosphere(2), np.array([[0.3, 0.2, 1.0], [-9.3e-8, -0.934, -0.357]]))
        p = rng.standard_normal((150, 3))
        p /= np.linalg.norm(p, axis=1)[:, None]
        self._check(convex_hull(p), rng.standard_normal((2, 3)))
        self._check(fixtures.icosphere(3), np.array([[0.1, -0.7, 0.4]]))

    def test_tied_heights_along_axes(self, cube, octahedron):
        # zero-width pieces between tied vertex heights
        for P in (cube, octahedron):
            self._check(P, np.eye(3))

    def test_segments_at_the_threshold(self, threshold_bipyramid):
        # gaps just below (narrow) and just above (wide) the threshold
        P = threshold_bipyramid
        a = np.unique(P.vertices[:, 2])[-2]
        assert (1.0 + 2.0 / a) * 3.0 == pytest.approx((1.0 + 1.0 / _TAU) ** 2, rel=1e-8)
        self._check(P, np.array([E3, [0.01, 0.02, 1.0]]))
        H, C = slice_quadratics(P, E3)
        for k in np.nonzero(np.diff(H) > 0.0)[0]:
            for t in (0.25, 0.5, 0.75):
                area = C[k, 0] + t * (C[k, 1] + t * C[k, 2])
                s = H[k] + t * (H[k + 1] - H[k])
                assert area == pytest.approx(slice_area(P, E3, s), rel=1e-10, abs=1e-12)


class TestPerPiecePass:
    """Both sides of _PER_PIECE_PAIRS against the per-(facet, piece) reference."""

    @pytest.mark.parametrize("pairs", [-1, 10**9], ids=["banded", "per-piece"])
    def test_both_paths_within_the_bound(self, monkeypatch, rng, cube, octahedron,
                                         threshold_bipyramid, pairs):
        # small bodies take the per-piece pass by default, grids of large ones
        # the bands; each is forced here onto the other's inputs
        monkeypatch.setattr(geom, "_PER_PIECE_PAIRS", pairs)
        check = TestSliceQuadratics()._check
        for P in (cube, octahedron):
            check(P, np.eye(3))
        check(threshold_bipyramid, np.array([E3, [0.01, 0.02, 1.0]]))
        check(convex_hull(rng.standard_normal((12, 3))), rng.standard_normal((6, 3)))
        check(fixtures.icosphere(1), np.array([[-9.3e-8, -0.934, -0.357], [0.3, 0.2, 1.0]]))
        check(fixtures.icosphere(2), np.array([[0.3, 0.2, 1.0]]))

    def test_paths_agree(self, monkeypatch, rng):
        P = fixtures.random_symmetric_polytope(rng, 8)
        X = rng.standard_normal((40, 3))
        out = []
        for pairs in (-1, 10**9):
            monkeypatch.setattr(geom, "_PER_PIECE_PAIRS", pairs)
            out.append(slice_quadratics(P, X))
        (H0, C0), (H1, C1) = out
        assert np.array_equal(H0, H1)
        assert np.max(np.abs(C0 - C1)) <= _rounding_bound(P)


class TestFibonacciSphere:
    def test_two_points(self):
        g = fibonacci_sphere(2)
        assert g.shape == (2, 3)
        assert np.dot(g[0], g[1]) < 0.0  # roughly antipodal

    def test_equidistribution(self):
        g = fibonacci_sphere(2048)
        # max nearest-neighbor angular gap below 0.1 rad, measured directly
        dots = np.clip(g @ g.T, -1.0, 1.0)
        np.fill_diagonal(dots, -1.0)
        gaps = np.arccos(np.max(dots, axis=1))
        assert gaps.max() < 0.1

    def test_unit_norms(self):
        g = fibonacci_sphere(999)
        assert np.max(np.abs(np.linalg.norm(g, axis=1) - 1.0)) <= 1e-12

    def test_too_few(self):
        with pytest.raises(InputError):
            fibonacci_sphere(1)

    @pytest.mark.parametrize("n", [100.5, 128.0, "128", None])
    def test_non_integer_rejected(self, n):
        # 128.0 too, even with fibonacci_sphere(128) already cached
        fibonacci_sphere(128)
        with pytest.raises(InputError):
            fibonacci_sphere(n)

    def test_deterministic(self):
        # a fresh build, bypassing the cache, equals the cached grid
        assert np.array_equal(fibonacci_sphere(128), fibonacci_sphere.__wrapped__(128))

    def test_cached_read_only(self):
        g = fibonacci_sphere(128)
        assert fibonacci_sphere(128) is g
        with pytest.raises(ValueError):
            g[0, 0] = 2.0
