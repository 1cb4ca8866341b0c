"""Zonotope calculus: support/volume/shadow formulas and projection bodies."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from pettylab import (Ball, FlatBodyError, GeneratorSet, InputError,
                      convex_hull, fibonacci_sphere, mixed_volume, ratio,
                      second_proj_support, z_shadow_area, z_volume)
from pettylab.geom import _FEW_DIRECTIONS, _chunks, _reduce_dots, plane_basis
from pettylab.zonotope import (_pair_path, _sorted_shadow, merge_parallel,
                               pair_crosses, pi2_count, pi2_rows, stack_ratios, triple_dets,
                               zonogon_area, zonotope_vertices)
from pettylab import fixtures, functionals, invariants, zonotope

E1, E2, E3 = np.eye(3)
DIAG = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)


def sign_sums(Z):
    """Reference vertex candidates: all 2^n sign sums +-x_1 +- ... +- x_n."""
    g = zonotope.as_set(Z).gens
    n = g.shape[0]
    signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * n), indexing="ij")).reshape(n, -1).T
    return signs @ g


def hull_volume_oracle(Z):
    """Exact zonotope volume via the hull of all sign-combination points."""
    return ConvexHull(sign_sums(Z)).volume


class TestSupport:
    def test_cube_axis(self):
        assert fixtures.cube_zonotope().support(E1) == 1.0

    def test_minkowski_additivity(self):
        assert GeneratorSet([E1, E1]).support(E1) == 2.0

    def test_diagonal(self):
        assert fixtures.cube_zonotope().support(DIAG) == pytest.approx(
            math.sqrt(3.0), rel=1e-14)

    def test_zero_generator_rejected(self):
        with pytest.raises(InputError):
            GeneratorSet([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


class TestVolume:
    def test_cube(self):
        assert z_volume(fixtures.cube_zonotope()) == 8.0

    def test_coplanar_is_zero(self):
        assert z_volume(GeneratorSet([E1, E2, E1 + E2])) == 0.0

    def test_four_generators(self):
        Z = GeneratorSet([E1, E2, E3, [1, 1, 1]])
        assert z_volume(Z) == pytest.approx(32.0, rel=1e-12)
        assert hull_volume_oracle(Z) == pytest.approx(32.0, rel=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_volume_matches_hull_oracle(self, seed):
        rng = np.random.default_rng(seed)
        Z = GeneratorSet(rng.standard_normal((int(rng.integers(3, 7)), 3)))
        assert z_volume(Z) == pytest.approx(hull_volume_oracle(Z), rel=1e-9)

    def test_scaling_law(self, rng):
        Z = fixtures.random_zonotope(rng, 5)
        lam = 1.7
        assert z_volume(GeneratorSet(lam * Z.gens)) == pytest.approx(
            lam ** 3 * z_volume(Z), rel=1e-12)


class TestShadow:
    def test_cube_axis(self):
        assert z_shadow_area(fixtures.cube_zonotope(), E3) == 4.0

    def test_flat_square_projects_to_itself(self):
        assert z_shadow_area(GeneratorSet([E1, E2]), E3) == 4.0

    def test_matches_zonogon_oracle(self, rng):
        for _ in range(50):
            Z = fixtures.random_zonotope(rng, int(rng.integers(3, 9)))
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            a = np.array([1.0, 0, 0]) if abs(x[0]) < 0.9 else np.array([0.0, 1, 0])
            e1 = np.cross(x, a)
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(x, e1)
            oracle = zonogon_area(np.column_stack([Z.gens @ e1, Z.gens @ e2]))
            val = z_shadow_area(Z, x)
            assert val == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e-16, 1e-20])
    def test_zonogon_oracle_scales_with_its_generators(self, scale):
        # the short-generator cut is relative to the longest generator, so a
        # tiny zonogon keeps its generators: 4 (1 + 1 + 1) scale^2
        g = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert zonogon_area(g) == pytest.approx(12.0, rel=1e-14)
        # approx's default absolute tolerance would pass 0.0
        want = pytest.approx(12.0 * scale ** 2, rel=1e-14, abs=0.0)
        assert zonogon_area(scale * g) == want
        assert z_shadow_area(np.column_stack([scale * g, np.zeros(3)]), E3) == want


class TestProjectionBody:
    def test_cube(self):
        pb = fixtures.cube_zonotope().pi_body
        assert sorted(np.linalg.norm(pb.gens, axis=1)) == pytest.approx([4.0] * 3)
        assert pb.support(E1) == 4.0  # body [-4,4]^3

    def test_twice_gives_64(self):
        pb2 = fixtures.cube_zonotope().pi_body.pi_body
        for u in np.eye(3):
            assert pb2.support(u) == pytest.approx(64.0, rel=1e-12)

    def test_flat_error(self):
        with pytest.raises(FlatBodyError):
            GeneratorSet([E1, E2, E1 + E2]).pi_body

    def test_support_equals_shadow(self, rng):
        # coherence of the shadow formula with the projection-body generators
        for _ in range(200):
            Z = fixtures.random_zonotope(rng, int(rng.integers(3, 9)))
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            assert Z.pi_body.support(x) == pytest.approx(
                z_shadow_area(Z, x), rel=1e-12)


class TestSecondProjSupport:
    def test_cube_axis(self):
        assert second_proj_support(fixtures.cube_zonotope(), E1) == 64.0

    def test_cube_diagonal(self):
        assert second_proj_support(fixtures.cube_zonotope(), DIAG) == pytest.approx(
            64.0 * math.sqrt(3.0), rel=1e-12)

    def test_flat_error(self):
        with pytest.raises(FlatBodyError):
            second_proj_support(GeneratorSet([E1, E2, E1 + E2]), E3)

    def test_composition_oracle(self, rng):
        # direct tuple sum against shadow of the materialized projection body
        for _ in range(200):
            Z = fixtures.random_zonotope(rng, int(rng.integers(3, 9)))
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            direct = second_proj_support(Z, x)
            composed = z_shadow_area(Z.pi_body, x)
            assert direct == pytest.approx(composed, rel=1e-9)

    def test_independent_of_pair_enumeration(self, monkeypatch, rng):
        # with the index table of the closed-form Pi^2 rows dropping its last
        # 4-subset, the composed support goes wrong and the oracle does not
        Z = fixtures.random_zonotope(rng, 5)
        x = np.array([0.2, -0.5, 0.84])
        direct = second_proj_support(Z, x)
        through, triples, gens = zonotope._pi2_index(5)
        monkeypatch.setattr(zonotope, "_pi2_index",
                            lambda n: (through, triples[:-1], gens[:-1]))
        fresh = GeneratorSet(Z.gens)
        assert second_proj_support(fresh, x) == direct
        assert z_shadow_area(fresh.pi_body, x) != pytest.approx(direct, rel=1e-9)

    def test_quartic_scaling(self, rng):
        Z = fixtures.random_zonotope(rng, 5)
        lam = 1.3
        x = np.array([0.2, -0.5, 0.84])
        x /= np.linalg.norm(x)
        assert second_proj_support(GeneratorSet(lam * Z.gens), x) == pytest.approx(
            lam ** 4 * second_proj_support(Z, x), rel=1e-12)


class TestPolytopeProjectionBody:
    def test_cube_gives_4cube(self, cube):
        assert len(cube.projection_generators()) == 12
        pb = cube.pi_body
        for u in np.eye(3):
            assert pb.support(u) == pytest.approx(4.0, rel=1e-12)

    def test_octahedron_merged(self, octahedron):
        pb = octahedron.pi_body
        assert len(pb) == 4
        norms = np.linalg.norm(pb.gens, axis=1)
        assert np.allclose(norms, math.sqrt(3.0) / 2.0)
        assert np.allclose(np.abs(pb.gens), 0.5)

    def test_tetrahedron(self, tetrahedron):
        pb = tetrahedron.pi_body
        mags = sorted(np.round(np.linalg.norm(pb.gens, axis=1), 12))
        assert mags == pytest.approx([0.25, 0.25, 0.25, math.sqrt(3.0) / 4.0])

    def test_support_equals_half_area_sum(self, rng):
        # h_{Pi K}(u) = (1/2) sum |<u, n_F>| A_F = shadow area of K
        P = fixtures.random_symmetric_polytope(rng, 8)
        pb = P.pi_body
        for _ in range(20):
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            byhand = 0.5 * float(np.sum(P.facet_areas * np.abs(P.facet_normals @ u)))
            assert pb.support(u) == pytest.approx(byhand, rel=1e-12)

    def test_merge_is_invisible(self, rng):
        P = fixtures.random_symmetric_polytope(rng, 7)
        a = GeneratorSet(P.projection_generators())
        b = P.pi_body
        assert len(b) < len(a)
        X = rng.standard_normal((32, 3))
        assert np.allclose(z_shadow_area(a, X), z_shadow_area(b, X), rtol=1e-12)


def test_merge_parallel_sums_lengths():
    gens = np.array([[1.0, 0, 0], [-2.0, 0, 0], [0, 1.0, 0]])
    merged = merge_parallel(gens)
    assert merged.shape == (2, 3)
    assert sorted(np.linalg.norm(merged, axis=1)) == [1.0, 3.0]


def merge_parallel_loop(gens, tol=1e-12):
    """Reference: each generator joins the first earlier group within tol."""
    g = np.asarray(gens, dtype=float)
    norms = np.linalg.norm(g, axis=1)
    keep = norms > 0.0
    g, norms = g[keep], norms[keep]
    units = g / norms[:, None]
    sign = np.where(units[:, 0] != 0.0, np.sign(units[:, 0]),
                    np.where(units[:, 1] != 0.0, np.sign(units[:, 1]), np.sign(units[:, 2])))
    units = units * sign[:, None]
    out_units = []
    out_norms = []
    for u, r in zip(units, norms):
        for k, v in enumerate(out_units):
            if np.linalg.norm(u - v) <= tol:
                out_norms[k] += r
                break
        else:
            out_units.append(u)
            out_norms.append(r)
    return np.array(out_units) * np.array(out_norms)[:, None]


def _near_parallel_gens():
    # pairs 0.5e-12 apart (merge) and 2e-12 apart (stay apart), one antiparallel
    base = np.array([[0.3, -0.4, 0.5], [0.0, 1.0, 0.0], [-1.0, 2.0, 2.0]])
    base /= np.linalg.norm(base, axis=1)[:, None]
    perp = np.array([[0.8, 0.6, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, -1.0]])
    perp -= np.sum(perp * base, axis=1)[:, None] * base
    perp /= np.linalg.norm(perp, axis=1)[:, None]
    rows = []
    for b, w in zip(base, perp):
        rows += [2.0 * b, b + 0.5e-12 * w, -1.5 * (b - 0.5e-12 * w), 0.7 * (b + 2e-12 * w)]
    return np.array(rows)


@pytest.mark.parametrize("name", ["cube", "octahedron", "icosphere1", "icosphere2",
                                  "icosphere3", "hull5", "hull40", "near-parallel"])
def test_merge_parallel_matches_loop(name):
    if name.startswith("icosphere"):
        gens = fixtures.icosphere(int(name[-1])).projection_generators()
    elif name.startswith("hull"):
        rng = np.random.default_rng(int(name[4:]))
        gens = fixtures.random_symmetric_polytope(rng, int(name[4:])).projection_generators()
    elif name == "near-parallel":
        gens = _near_parallel_gens()
    else:
        gens = fixtures.FIXTURES[name]().projection_generators()
    want = merge_parallel_loop(gens)
    got = merge_parallel(gens)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    if name == "near-parallel":
        assert got.shape == (6, 3)


def _chain_gens():
    """Units 0.6e-12 apart in a row: ends 1.2e-12 apart, joined through the middle one."""
    b, w = np.array([0.2, 0.9, -0.4]), np.array([0.9, -0.2, 0.0])
    b /= np.linalg.norm(b)
    w -= (w @ b) * b
    w /= np.linalg.norm(w)
    return np.array([1.5 * (b + 1.2e-12 * w), 0.5 * b, -2.0 * (b + 0.6e-12 * w), [0.0, 0.0, 1.0]])


def _ragged_members():
    """Generator blocks of many kinds, each to be merged on its own."""
    rng = np.random.default_rng(12)
    members = [fixtures.cube().projection_generators(), _near_parallel_gens(), _chain_gens()]
    members += [fixtures.random_symmetric_polytope(rng, n).projection_generators()
                for n in (4, 9, 17)]
    members += [np.vstack([rng.standard_normal((5, 3)), np.zeros((2, 3))]), np.eye(3)]
    # the same lines in two blocks, which must not merge across them
    members += [np.array([[1.0, 2.0, 2.0], [0.0, 1.0, 0.0]]), np.array([[-2.0, -4.0, -4.0]])]
    return members


def test_stacked_merge_parallel_is_each_members_merge():
    members = _ragged_members()
    merged, counts = merge_parallel(np.concatenate(members), [len(g) for g in members])
    assert len(counts) == len(members) and counts.sum() == len(merged)
    blocks = np.split(merged, np.cumsum(counts)[:-1])
    for k, (g, block) in enumerate(zip(members, blocks)):
        own = merge_parallel(g)
        assert block.shape == own.shape and block.tobytes() == own.tobytes()
        if k == 2:
            # the loop joins a group's first member only, so it splits the chain
            continue
        want = merge_parallel_loop(g)
        assert block.shape == want.shape
        assert np.max(np.abs(block - want)) <= 1e-15 * np.max(np.abs(want))
    # the chain is one segment, its summed length 4, and the last two blocks
    # keep their lines
    assert len(blocks[2]) == 2 and np.linalg.norm(blocks[2][0]) == pytest.approx(4.0, rel=1e-15)
    assert len(blocks[-2]) == 2 and len(blocks[-1]) == 1


def test_pi_bodies_are_each_polytopes_own():
    def polytopes():
        rng = np.random.default_rng(13)
        return ([fixtures.cube(), fixtures.octahedron(), fixtures.icosphere(1)]
                + [fixtures.random_symmetric_polytope(rng, n) for n in (4, 6, 11, 30)])

    polys, fresh = polytopes(), polytopes()
    zonotope.cache_pi_bodies(fresh)
    for P, Q in zip(polys, fresh):
        assert "pi_body" in Q.__dict__
        assert Q.pi_body.gens.tobytes() == P.pi_body.gens.tobytes()
        assert Q.pi_body.gens.flags.c_contiguous == P.pi_body.gens.flags.c_contiguous
    kept = fresh[0].pi_body
    zonotope.cache_pi_bodies(fresh[:1])  # a cached Pi body stays
    assert fresh[0].pi_body is kept


def _shadow_oracle(G, x):
    e1, e2 = plane_basis(x / np.linalg.norm(x))
    return np.linalg.norm(x) * zonogon_area(np.column_stack([G @ e1, G @ e2]))


def _degenerate(rng, G, kind):
    """Rows of G made parallel, antiparallel, along x = e3, or on the seam at x."""
    G = G.copy()
    k = min(len(G), 4)
    if kind == "parallel":
        G[:k] = rng.standard_normal(k)[:, None] * G[0]
    elif kind == "along-x":
        G[:k, :2] = 0.0
    elif kind == "seam":
        # x = e3 has the frame (e1, e2): these project to p < 0, q = 0
        G[:k, 0] = -np.abs(G[:k, 0]) - 0.1
        G[:k, 1] = 0.0
    return G


@given(st.integers(0, 2**32 - 1), st.sampled_from([4, 7, 90, 140]),
       st.sampled_from(["generic", "parallel", "along-x", "seam"]))
@settings(max_examples=40, deadline=None)
def test_shadow_paths_agree(seed, n, kind):
    rng = np.random.default_rng(seed)
    G = _degenerate(rng, rng.standard_normal((n, 3)), kind)
    X = rng.standard_normal((64, 3))
    X[0] = [0.0, 0.0, 2.5]  # non-unit x on the seam of the rows above
    X[1] = G[-1]            # a generator direction: its own row projects to 0
    Z = GeneratorSet(G)
    assert _pair_path(n, len(X)) == (n < 50)
    pair = 4.0 * _reduce_dots(pair_crosses(G), X)
    oracle = np.array([_shadow_oracle(G, x) for x in X])
    # 1e-12 relative, or of the area scale where parallel rows cancel to ~0
    tol = 1e-12 * np.maximum(np.abs(pair), np.sum(np.linalg.norm(G, axis=1)) ** 2
                             * np.linalg.norm(X, axis=1))
    for got in (_sorted_shadow(G, X), z_shadow_area(Z, X), [z_shadow_area(Z, X[0])]):
        m = np.size(got)
        assert np.all(np.abs(got - pair[:m]) <= tol[:m])
        assert np.all(np.abs(got - oracle[:m]) <= tol[:m])


def _vertex_paths(G, X):
    """(values, V) of the pair sum and of the walk over the generators G at X."""
    values, V = _reduce_dots(pair_crosses(G), X, signs=True)
    return (4.0 * values, 4.0 * V), _sorted_shadow(G, X, vertices=True)


@given(st.integers(0, 2**32 - 1), st.sampled_from([4, 7, 30, 90]),
       st.sampled_from(["generic", "parallel", "along-x", "seam"]))
@settings(max_examples=40, deadline=None)
def test_shadow_vertices_support_their_shadows(seed, n, kind):
    # on both paths v(x) is a point of Pi Z where <., x> reaches the shadow,
    # so <v(y), x> stays below the shadow at x for every y
    rng = np.random.default_rng(seed)
    G = _degenerate(rng, rng.standard_normal((n, 3)), kind)
    X = rng.standard_normal((80, 3))
    X[0] = [0.0, 0.0, 2.5]             # non-unit x on the seam of the rows above
    X[1] = G[-1]                       # a generator direction
    X[2] = 0.3 * G[0] - 1.7 * G[1]     # in the plane of two generators
    X[3] = -X[2]
    Y = rng.standard_normal((50, 3))
    Y[:4] = X[:4]
    h = 4.0 * _reduce_dots(pair_crosses(G), X)
    # of the area scale where parallel rows cancel to ~0, as in a flat body
    slack = 1e-14 * np.sum(np.linalg.norm(G, axis=1)) ** 2 * np.linalg.norm(X, axis=1)
    for (values, V), (_, VY) in zip(_vertex_paths(G, X), _vertex_paths(G, Y)):
        assert np.all(np.abs(values - h) <= np.maximum(1e-14 * h, slack))
        assert np.all(np.abs(np.einsum("ij,ij->i", V, X) - h) <= np.maximum(1e-14 * h, slack))
        assert np.all(X @ VY.T <= (h * (1.0 + 1e-12) + slack)[:, None])


@pytest.mark.parametrize("n", [5, 12, 16])
def test_shadow_vertices_of_pi2(n):
    # Pi Z's rows are pi2_rows, merged: 5 and 12 generators take the pair
    # sum, 16 the walk; a polytope's Pi has merged facet generators
    rng = np.random.default_rng(n)
    X, Y = rng.standard_normal((300, 3)), rng.standard_normal((200, 3))
    for B in (GeneratorSet(rng.standard_normal((n, 3))),
              fixtures.random_symmetric_polytope(rng, 2 * n)):
        h = z_shadow_area(B.pi_body, X)
        values, V = z_shadow_area(B.pi_body, X, vertices=True)
        assert values == pytest.approx(h, rel=1e-14)
        assert np.einsum("ij,ij->i", V, X) == pytest.approx(h, rel=1e-14)
        assert np.all(X @ z_shadow_area(B.pi_body, Y, vertices=True)[1].T
                      <= h[:, None] * (1.0 + 1e-12))


def _shadow_bodies():
    """Pi of the benchmark's exact-pmm 8-generator zonotope at its seed 2 (218 pair
    rows), Pi of a 13-generator zonotope (2,158 pair rows, so chunks of fewer
    than 64 directions), and Pi of a 100-pair sphere hull (the walk)."""
    rng = np.random.default_rng(np.random.SeedSequence([2, sum(map(ord, "exact-pmm"))]))
    z8 = GeneratorSet(rng.standard_normal((8, 3)))
    p = np.random.default_rng(100).standard_normal((100, 3))
    p /= np.linalg.norm(p, axis=1)[:, None]
    hull = convex_hull(np.vstack([p, -p]), symmetric=True)
    z13 = GeneratorSet(np.random.default_rng(13).standard_normal((13, 3)))
    return [pytest.param(B, id=name) for name, B in
            (("zonotope8", z8), ("zonotope13", z13), ("hull100", hull))]


@pytest.mark.parametrize("B", _shadow_bodies())
def test_shadow_vertices_leave_the_values_unchanged(B):
    # with vertices the shadows are those of the plain call bit for bit:
    # below and above 64 directions, and over several chunks of them
    pi = B.pi_body
    grids = [B.candidates, fibonacci_sphere(10), fibonacci_sphere(2048 + 3),
             np.random.default_rng(1).standard_normal((5000, 3))]
    for X in grids:
        assert np.array_equal(z_shadow_area(pi, X, vertices=True)[0], z_shadow_area(pi, X))
    pair = [zonotope._pair_path(len(pi), len(X), zonotope.pair_row_count(pi)) for X in grids]
    assert all(pair) if isinstance(B, GeneratorSet) else not any(pair)


@given(st.integers(0, 2**32 - 1), st.sampled_from([4, 12]))
@settings(max_examples=15, deadline=None)
def test_second_support_from_shadow_paths(seed, n):
    # Pi Z has 6 or 66 generators: the pair sum and the walk both meet the tuple sum
    rng = np.random.default_rng(seed)
    Z = fixtures.random_zonotope(rng, n)
    X = rng.standard_normal((70, 3))
    pi = Z.pi_body
    direct = np.array([second_proj_support(Z, x) for x in X[:3]])
    assert 4.0 * _reduce_dots(pi._crosses, X[:3]) == pytest.approx(direct, rel=1e-12)
    assert _sorted_shadow(pi.gens, X[:3]) == pytest.approx(direct, rel=1e-12)
    assert z_shadow_area(pi, X)[:3] == pytest.approx(direct, rel=1e-12)


def _dyadic(A):
    """Integers N and an exponent e with A = N 2^-e exactly: every double is a dyadic rational."""
    e = max(Fraction(v).denominator for v in A.ravel()).bit_length() - 1
    return [[int(Fraction(v) * 2**e) for v in row] for row in A], e


def _int_cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _exact_nested_crosses(G, X):
    """sum_r |<r, x>| over the crosses r of Pi Z's generators 4 (x_i x x_j), per row x of X.

    In integers, exact for the float generators and directions, so only the
    final rounding to float remains.
    """
    g, eg = _dyadic(G)
    x, ex = _dyadic(X)
    crosses = [_int_cross(g[i], g[j]) for i, j in itertools.combinations(range(len(g)), 2)]
    rows = [_int_cross(a, b) for a, b in itertools.combinations(crosses, 2)]
    return np.array([float(Fraction(16 * sum(abs(r[0] * y[0] + r[1] * y[1] + r[2] * y[2])
                                                  for r in rows), 2 ** (4 * eg + ex)))
                     for y in x])


@given(st.integers(0, 2**32 - 1), st.integers(3, 12),
       st.sampled_from(["generic", "parallel", "antiparallel", "doubled"]))
@example(52716, 3, "generic")
@example(233134, 3, "generic")
@settings(max_examples=60, deadline=None)
def test_closed_form_pi2_rows_match_nested_crosses(seed, n, kind):
    # Pi^2 rows from the triple table against the crosses of Pi Z's own
    # generators, nested and summed exactly; a pair of generators along one
    # line zeroes some D_ijk.  A computed D_ijk = <x_i x x_j, x_k> is off by a
    # few u |x_i| |x_j| |x_k| (u = eps / 2), and the rows scale generators by
    # determinants, so the relative error grows with the Hadamard ratio
    # kappa = sum |x_i| |x_j| |x_k| / sum |D_ijk| over the triples: of 1,500
    # flattened sets the worst took 0.82 u kappa.  The bound is 8 eps kappa
    # where that passes 1e-12 (kappa > 563): near-flat draws such as 52716
    # (kappa 3.6e4, off by 5.3e-13) and 233134 (4.1e5, off by 5.9e-12)
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, 3))
    if n >= 4 and kind != "generic":
        lam = {"parallel": rng.uniform(0.5, 2.0), "antiparallel": -rng.uniform(0.5, 2.0),
               "doubled": 2.0}[kind]
        G[1] = lam * G[0]
        if n >= 5:
            G[3] = -G[2]
    Z = GeneratorSet(G)
    pi = Z.pi_body
    assert len(pi2_rows(G, triple_dets(G))) == n + 3 * math.comb(n, 4)
    X = rng.standard_normal((40, 3))
    exact = _exact_nested_crosses(G, X[:4])
    closed = _reduce_dots(pi._crosses, X)[:4]
    norms = np.linalg.norm(G, axis=1)
    triples = np.array(list(itertools.combinations(range(n), 3)))
    kappa = np.sum(np.prod(norms[triples], axis=1)) / np.sum(np.abs(triple_dets(G)))
    tol = max(1e-12, 8.0 * np.finfo(float).eps * kappa)
    assert np.all(np.abs(closed - exact) <= tol * exact)


def test_pair_shadow_reuses_no_stale_products():
    # the chunks share one buffer; each, the short last one too, must give
    # its own products bit for bit, summed or, as for a polytope, maximized
    rng = np.random.default_rng(3)
    C, X = rng.standard_normal((300, 3)), rng.standard_normal((1000, 3))
    assert len(list(_chunks(len(X), 8 * len(C)))) == 3
    for maximum, reduce in ((False, lambda dots: np.sum(np.abs(dots), axis=0)),
                            (True, lambda dots: np.max(dots, axis=0))):
        want = np.concatenate([reduce(C @ X[sl].T) for sl in _chunks(len(X), 8 * len(C))])
        assert np.array_equal(_reduce_dots(C, X, maximum), want)


def test_support_memory_is_bounded():
    # 300 generators times 100,000 directions are 240 MB of products at
    # once; chunked they stay near 1 MiB, beside the 0.8 MB of values
    rng = np.random.default_rng(4)
    Z, X = GeneratorSet(rng.standard_normal((300, 3))), fibonacci_sphere(100_000)
    tracemalloc.start()
    try:
        vals = Z.support(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    want = np.concatenate([np.sum(np.abs(Z.gens @ X[i:i + 1000].T), axis=0)
                           for i in range(0, len(X), 1000)])
    assert vals == pytest.approx(want, rel=1e-15)


@given(st.integers(0, 2**32 - 1), st.integers(1, _FEW_DIRECTIONS - 1),
       st.sampled_from([1, 7, 218, 1497, 6000, 20_000]), st.sampled_from(["generic", "seam"]),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_few_directions_match_the_grid_layout(seed, d, m, kind, maximum):
    # chunks of fewer directions than _FEW_DIRECTIONS reduce contiguous rows
    # of products, wider ones reduce across them.  Up to 2,048 rows the same
    # directions at the head of a grid-sized call take the other order; past
    # it a chunk holds fewer than 64 directions and both calls take (d, m),
    # so C @ X.T reduced directly gives the (m, d) order.  A 3-term product
    # is off by at most 3 u times sum_i |c_i x_i| (u = eps / 2), and a sum of
    # m nonnegative terms by (m - 1) u, so each order is within (m + 2) u of
    # the exact value, relative to A = sum over rows and coordinates of
    # |c_i x_i|, and two differ by at most (m + 2) eps A.  A max is one
    # product, within gamma_3 A < 2 eps A of its exact value in either order,
    # so two maxima differ by less than 4 eps A
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((m, 3)) * rng.uniform(0.1, 10.0, (m, 1))
    X = rng.standard_normal((d, 3))
    if kind == "seam":  # directions in the planes of some rows: terms cancel to ~0
        k = min(m, d // 2 + 1)
        X[:k] = np.cross(C[:k], rng.standard_normal(3))
    few = _reduce_dots(C, X, maximum)
    grid = _reduce_dots(C, np.vstack([X, rng.standard_normal((64, 3))]), maximum)[:d]
    dots = C @ X.T
    direct = np.max(dots, axis=0) if maximum else np.sum(np.abs(dots), axis=0)
    A = (np.abs(X) @ np.abs(C).T).sum(axis=1)
    eps = np.finfo(float).eps
    for other in (grid, direct):
        assert np.all(np.abs(few - other) <= (4 if maximum else m + 2) * eps * A)


def test_volume_of_many_generators_by_increments():
    # V(Z + [-x, x]) = V(Z) + 2|x| V_2(Z | x^perp), one generator at a time
    rng = np.random.default_rng(33)
    G = rng.standard_normal((100, 3))
    vol = 0.0
    for k in range(1, len(G)):
        vol += 2.0 * _shadow_oracle(G[:k], G[k])  # the oracle scales with |x|
    assert not _pair_path(len(G), len(G))
    assert z_volume(G) == pytest.approx(vol, rel=1e-12)


@pytest.mark.parametrize("n, kind", [(n, "generic") for n in range(3, 13)]
                         + [(n, "parallel") for n in range(4, 13)])
def test_vertices_match_sign_sums(n, kind):
    # pruned partial sums keep every vertex of the 2^n sign sums and nothing else
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, 3))
    if kind == "parallel":
        g[-1] = -2.5 * g[0]
        if n > 4:
            g[1] = 0.5 * g[0]
    pts = zonotope_vertices(g)
    got, want = ConvexHull(pts), ConvexHull(sign_sums(g))
    assert len(pts) == len(got.vertices) == len(want.vertices)
    assert got.volume == pytest.approx(want.volume, rel=1e-12)
    assert got.volume == pytest.approx(z_volume(g), rel=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_minkowski_additivity_of_supports(seed):
    # Z1 + Z2 is generated by both generator lists
    rng = np.random.default_rng(seed)
    g1, g2 = (rng.standard_normal((int(rng.integers(1, 7)), 3)) for _ in range(2))
    X = rng.standard_normal((16, 3))
    total = GeneratorSet(np.vstack([g1, g2])).support(X)
    assert total == pytest.approx(GeneratorSet(g1).support(X) + GeneratorSet(g2).support(X),
                                  rel=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_protocol_agrees_with_vertex_hull(seed):
    # a zonotope and its realization as a polytope answer the body protocol alike
    rng = np.random.default_rng(seed)
    Z = GeneratorSet(rng.standard_normal((int(rng.integers(3, 7)), 3)))
    P = convex_hull(zonotope_vertices(Z), symmetric=True)
    X = rng.standard_normal((16, 3))
    assert P.volume == pytest.approx(Z.volume, rel=1e-9)
    assert P.support(X) == pytest.approx(Z.support(X), rel=1e-9)
    for K in (Ball(), Z):
        assert mixed_volume(K, P) == pytest.approx(mixed_volume(K, Z), rel=1e-9)
    assert P.pi_body.support(X) == pytest.approx(Z.pi_body.support(X), rel=1e-9)


def test_stack_ratios_go_in_chunks_of_members():
    # 2,000 zonotopes of 8 generators, whose Pi^2 rows and the arrays that
    # form them took 31.8 MiB in one stack: in chunks of members of about
    # _CHUNK_BYTES, each member still gets the values of its own call
    G = np.random.default_rng(21).standard_normal((2000, 8, 3))
    tracemalloc.start()
    try:
        values, ok = stack_ratios(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert ok.all()
    for g, row in zip(G, values):
        Z = GeneratorSet(g)
        assert np.array_equal(row, ratio(Z, Z.candidates))


@given(st.integers(0, 2**32 - 1), st.integers(3, 13),
       st.lists(st.sampled_from(["generic", "zero-cross", "flat", "coplanar-four"]),
                min_size=1, max_size=5))
@example(7, 11, ["generic", "zero-cross", "generic"])
@example(7, 13, ["generic", "generic", "flat", "generic"])
@settings(max_examples=60, deadline=None)
def test_stack_ratios_are_each_bodys_ratios(seed, n, kinds):
    # every candidate's value, not only the max; a member with a zero cross,
    # with all generators in a plane or with a zero Pi^2 row (four coplanar
    # generators) is left out of the stack.  From 11 generators on the 66 and
    # more candidates take the (rows, directions) layout, and at 13 the
    # shadow's products go in two chunks of directions
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((len(kinds), n, 3))
    for g, kind in zip(G, kinds):
        if kind == "zero-cross":
            g[1] = -2.0 * g[0]
        elif kind == "flat":  # to the 1e-12 of is_flat, not exactly
            g[:, 2] *= 1e-13
        elif kind == "coplanar-four":
            g[:4, 2] = 0.0
    values, ok = stack_ratios(G)
    assert values.shape == (len(G), n + n * (n - 1) // 2)
    # the candidates' shadows are priced as the vertex pass invariants reads
    # M from: from 13 generators on they walk, which the stack leaves out
    C = n * (n - 1) // 2
    walk = not _pair_path(C, n + C, pi2_count(n), vertices=True)
    assert walk == (n >= 13)
    assert list(ok) == [kind == "generic" and not walk for kind in kinds]
    for g, row, good in zip(G, values, ok):
        if good:
            Z = GeneratorSet(g)
            at = functionals._ratio_rows(Z, Z.candidates, vertex_price=True)[0]
            assert np.array_equal(row, at())
            assert np.max(row) == invariants(Z, want=("M",)).M
        else:
            assert np.isnan(row).all()
