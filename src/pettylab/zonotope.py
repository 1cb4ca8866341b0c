"""Zonotope calculus: support, volume, shadows, and projection bodies.

A centrally symmetric zonotope Z = sum of segments [-x_i, x_i] is stored by
its generator list.  Everything here reduces to sums of absolute 3x3
determinants over generator tuples:

    h_Z(x)            = sum_i |<x, x_i>|
    V(Z)              = 8 * sum_{i<j<k} |det(x_i, x_j, x_k)|
    V_2(Z | x^perp)   = 4 * sum_{i<j} |det(x_i, x_j, x)|

and the projection body of Z is the zonotope generated by {4 (x_i x x_j)}.
The facet normals of a polytope give its projection body the same way, one
generator (area/2) * normal per triangle.
"""

from functools import cached_property

import numpy as np

from .errors import FlatBodyError, InputError
from .geom import as_vec

# Pair-index cache keyed by generator count; the i<j enumeration order is
# fixed so determinant sums are reproducible bit for bit.
_PAIR_CACHE = {}


class GeneratorSet:
    """Generators x_1..x_n of the zonotope sum of [-x_i, x_i].

    Answers the body protocol (volume, support(X), surface_measure(),
    projection_generators()) through the determinant sums of this module.
    """

    symmetric = True

    def __init__(self, gens):
        g = np.asarray(gens, dtype=float)
        if g.ndim != 2 or g.shape[1] != 3:
            raise InputError("generators must form an (n, 3) array")
        if g.shape[0] < 1:
            raise InputError("need at least one generator")
        if not np.all(np.isfinite(g)):
            raise InputError("generators have non-finite entries")
        if np.any(np.linalg.norm(g, axis=1) == 0.0):
            raise InputError("zero generators are not allowed")
        self.gens = g

    def __len__(self):
        return self.gens.shape[0]

    def map_linear(self, mat):
        return GeneratorSet(self.gens @ np.asarray(mat, float).T)

    @cached_property
    def volume(self):
        return z_volume(self)

    def support(self, X):
        """Support values sum_i |<x, x_i>|, per row of X (or for one x)."""
        return np.sum(np.abs(self.gens @ np.asarray(X, float).T), axis=0)

    def projection_generators(self):
        """Generators 4 (x_i x x_j) of Pi Z, zero cross products skipped."""
        if is_flat(self):
            raise FlatBodyError("projection body of a flat zonotope is degenerate")
        return 4.0 * pair_crosses(self, drop_zero=True)

    def surface_measure(self):
        """Each pair (i, j) spans two antipodal facets of area 4|x_i x x_j|."""
        g = self.projection_generators()
        area = np.linalg.norm(g, axis=1)
        unit = g / area[:, None]
        return np.vstack([unit, -unit]), np.concatenate([area, area])


def as_gens(Z):
    """Accept a GeneratorSet or a raw (n, 3) array."""
    if isinstance(Z, GeneratorSet):
        return Z.gens
    return GeneratorSet(Z).gens


def _pairs(n):
    if n not in _PAIR_CACHE:
        idx = np.triu_indices(n, k=1)
        _PAIR_CACHE[n] = idx
    return _PAIR_CACHE[n]


def pair_crosses(Z, drop_zero=False):
    """Cross products x_i x x_j over i < j, in index order."""
    g = as_gens(Z)
    i, j = _pairs(g.shape[0])
    c = np.cross(g[i], g[j])
    if drop_zero:
        scale = float(np.max(np.abs(g))) or 1.0
        c = c[np.linalg.norm(c, axis=1) > 1e-14 * scale * scale]
    return c


def is_flat(Z):
    """True when all generators lie in a plane (the zonotope has no interior)."""
    g = as_gens(Z)
    if g.shape[0] < 3:
        return True
    sv = np.linalg.svd(g, compute_uv=False)
    return bool(sv[2] <= 1e-12 * sv[0])


def z_volume(Z):
    """Volume 8 * sum over generator triples of |det|; zero iff coplanar."""
    g = as_gens(Z)
    n = g.shape[0]
    if n < 3:
        return 0.0
    c = pair_crosses(g)
    i, j = _pairs(n)
    # sum over i<j and all k of |det(x_i, x_j, x_k)| counts each triple 3x
    total = 0.0
    chunk = max(1, int(2e7) // max(n, 1))
    for lo in range(0, c.shape[0], chunk):
        total += float(np.sum(np.abs(c[lo:lo + chunk] @ g.T)))
    return 8.0 * total / 3.0


def z_shadow_area(Z, X):
    """Shadow areas V_2(Z | x^perp) = 4 * sum over pairs of |det(x_i, x_j, x)|.

    One value per row of X, or one value for a single direction x.
    """
    c = pair_crosses(Z)
    return 4.0 * np.sum(np.abs(c @ np.asarray(X, float).T), axis=0)


def projection_body(K):
    """Projection body Pi K of a zonotope or polytope, as a GeneratorSet.

    Built from K.projection_generators(); parallel generators are kept
    separate (support and volume sums are additive, so merging is never
    required for correctness).
    """
    return GeneratorSet(K.projection_generators())


def second_proj_support(Z, x):
    """Support value of the second projection body, h_{Pi^2 Z}(x).

    Direct tuple-sum evaluation: 8 * sum over ordered 4-tuples (i,j,k,l) of
    |det(x_i x x_j, x_k x x_l, x)|, computed over i<j, k<l with multiplicity
    4 (absolute values make the orientation irrelevant).  Kept as the
    independent oracle of the projection-body pipeline.
    """
    if is_flat(Z):
        raise FlatBodyError("flat zonotope has no second projection body")
    cc = pair_crosses(pair_crosses(Z, drop_zero=True))
    # ordered (a,b) combos of i<j pairs double the a<b sum; times multiplicity 4
    return 64.0 * float(np.sum(np.abs(cc @ as_vec(x, 3))))


def merge_parallel(gens, tol=1e-12):
    """Combine (anti)parallel generators into single summed segments."""
    g = np.asarray(gens, dtype=float)
    norms = np.linalg.norm(g, axis=1)
    keep = norms > 0.0
    g, norms = g[keep], norms[keep]
    units = g / norms[:, None]
    # canonical sign: first nonzero coordinate positive
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


def zonogon_area(gens2d):
    """Area of the planar zonotope with the given 2-D generators.

    Independent of the determinant-sum formula: the zonogon boundary is
    walked generator by generator in angular order and the polygon area is
    taken by the shoelace rule.  Used as a cross-check oracle for shadows.
    """
    g = np.asarray(gens2d, dtype=float)
    if g.ndim != 2 or g.shape[1] != 2:
        raise InputError("expected (n, 2) generators")
    norms = np.hypot(g[:, 0], g[:, 1])
    g = g[norms > 1e-15 * max(float(norms.max(initial=0.0)), 1.0)]
    if g.shape[0] == 0:
        return 0.0
    flip = (g[:, 1] < 0.0) | ((g[:, 1] == 0.0) & (g[:, 0] < 0.0))
    g = np.where(flip[:, None], -g, g)
    order = np.argsort(np.arctan2(g[:, 1], g[:, 0]), kind="stable")
    g = g[order]
    start = -np.sum(g, axis=0)
    upper = start + 2.0 * np.cumsum(g, axis=0)
    # boundary cycle: start, w_1..w_n (= -start), then -w_1..-w_{n-1}
    poly = np.vstack([start, upper, -upper[:-1] if g.shape[0] > 1 else np.empty((0, 2))])
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def zonotope_vertices(Z, limit=16):
    """All sign-combination points of the generators (2^n of them).

    Only sensible for small n; used to realize a zonotope as a Polytope.
    """
    g = as_gens(Z)
    n = g.shape[0]
    if n > limit:
        raise InputError(f"vertex enumeration limited to {limit} generators")
    signs = np.array(np.meshgrid(*([[-1.0, 1.0]] * n), indexing="ij")).reshape(n, -1).T
    return signs @ g
