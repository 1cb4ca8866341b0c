"""Vector/exterior algebra and 3-D polytope geometry.

Everything downstream (zonotope calculus, invariants, symmetrization) sits on
the primitives in this module: triangulated convex hulls with outward
normals, support values, line chords and planar slices, and a deterministic
sphere grid for extremization.

All operations are pure functions of immutable inputs; floating point (IEEE
double) throughout, with tolerances stated per operation.
"""

from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import FlatBodyError, InputError

# Coplanarity/merge tolerance for hull construction.
HULL_TOL = 1e-10


def as_vec(x, d=None):
    """Coerce to a 1-D float vector, optionally checking its dimension."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InputError(f"expected a vector, got array of shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InputError("vector has non-finite entries")
    if d is not None and v.shape[0] != d:
        raise InputError(f"expected dimension {d}, got {v.shape[0]}")
    return v


def unitize(x):
    """Scale a nonzero vector to unit length."""
    v = as_vec(x)
    n = np.linalg.norm(v)
    if n == 0.0:
        raise InputError("cannot normalize the zero vector")
    return v / n


def plane_basis(x):
    """Orthonormal pair (e1, e2) spanning the plane orthogonal to the unit x."""
    a = np.array([1.0, 0.0, 0.0]) if abs(x[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = unitize(np.cross(x, a))
    return e1, np.cross(x, e1)


def fibonacci_sphere(n):
    """Deterministic, approximately equidistributed grid of n unit vectors."""
    if n < 2:
        raise InputError("sphere grid needs at least 2 points")
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    th = golden * i
    pts = np.column_stack([r * np.cos(th), r * np.sin(th), z])
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    return SphereGrid(points=pts, resolution=n)


class SphereGrid:
    """Unit direction set used as an extremization domain."""

    def __init__(self, points, resolution):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise InputError("sphere grid needs at least 2 points")
        norms = np.linalg.norm(pts, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-12:
            raise InputError("sphere grid points must be unit vectors")
        self.points = pts
        self.resolution = int(resolution)

    def __len__(self):
        return self.points.shape[0]


class Polytope:
    """Triangulated 3-D convex polytope: vertices, facet triples, symmetry flag.

    Facet triples are oriented outward at construction; per-facet unit
    normals, areas and plane offsets are derived once and cached.  Like every
    body type it answers volume, support(X), surface_measure() and
    projection_generators().
    """

    def __init__(self, vertices, facets, symmetric=False):
        verts = np.asarray(vertices, dtype=float)
        tris = np.asarray(facets, dtype=int)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise InputError("vertices must be an (n, 3) array")
        if not np.all(np.isfinite(verts)):
            raise InputError("vertices have non-finite entries")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise InputError("facets must be vertex-index triples")
        self.vertices = verts
        self.facets = tris
        self.symmetric = bool(symmetric)
        self._orient_outward()
        if self.volume <= 0.0 or not np.isfinite(self.volume):
            raise FlatBodyError("polytope has empty interior")
        scale = float(np.max(np.abs(verts))) or 1.0
        if np.any(self.facet_areas <= 1e-14 * scale * scale):
            raise InputError("facet triple is affinely dependent")
        if self.symmetric:
            d = self._symmetry_defect()
            if d > 1e-9 * scale:
                raise InputError(f"body is not centrally symmetric (defect {d:.3e})")

    def _orient_outward(self):
        v = self.vertices
        t = self.facets
        inner = v.mean(axis=0)
        a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
        cr = np.cross(b - a, c - a)
        flip = np.einsum("ij,ij->i", cr, a - inner) < 0.0
        t = t.copy()
        t[flip] = t[flip][:, [0, 2, 1]]
        self.facets = t
        a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
        cr = np.cross(b - a, c - a)
        two_areas = np.linalg.norm(cr, axis=1)
        self.facet_areas = 0.5 * two_areas
        with np.errstate(invalid="ignore", divide="ignore"):
            self.facet_normals = np.where(two_areas[:, None] > 0.0, cr / two_areas[:, None], 0.0)
        # plane offset <n, y> = c for each facet
        self.facet_offsets = np.einsum("ij,ij->i", self.facet_normals, a)
        self.volume = float(np.einsum("ij,ij->i", np.cross(a, b), c).sum() / 6.0)

    def _symmetry_defect(self):
        """How far the reflected vertex set pokes outside the facet planes.

        Zero for an exactly centrally symmetric body; tolerance-based hulls
        may drop one vertex of an antipodal pair combinatorially, so the
        meaningful invariant is geometric containment of -v, not vertex-set
        closure.
        """
        outside = (-self.vertices) @ self.facet_normals.T - self.facet_offsets[None, :]
        return float(max(0.0, np.max(outside)))

    def support(self, X):
        """Support values max over vertices of <x, v>, per row of X (or for one x)."""
        return np.max(self.vertices @ np.asarray(X, dtype=float).T, axis=0)

    def surface_measure(self):
        """Unit outward facet normals and the facet areas they carry."""
        return self.facet_normals, self.facet_areas

    def projection_generators(self):
        """Generators of Pi P: (area/2) * normal per triangle, parallel ones kept apart."""
        return 0.5 * self.facet_areas[:, None] * self.facet_normals

    @cached_property
    def pi_body(self):
        """Pi P as a GeneratorSet with the parallel facet generators merged.

        Kept for P and the support of Pi^2 P; merging makes its pair sums and
        zonogon walks shorter.
        """
        from .zonotope import GeneratorSet, merge_parallel  # zonotope imports geom
        return GeneratorSet(merge_parallel(self.projection_generators()))

    def map_linear(self, mat):
        """Image under an orientation-preserving linear map (facets kept)."""
        m = np.asarray(mat, dtype=float)
        if np.linalg.det(m) <= 0:
            raise InputError("linear map must preserve orientation")
        return Polytope(self.vertices @ m.T, self.facets, symmetric=self.symmetric)


def convex_hull(points, symmetric=False):
    """Triangulated convex hull of >= 4 points in R^3 with outward normals.

    Coplanar input raises FlatBodyError; interior points are dropped from the
    vertex list.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InputError("points must be an (n, 3) array")
    if pts.shape[0] < 4:
        raise InputError("need at least 4 points")
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise FlatBodyError(f"degenerate point set: {exc}") from exc
    scale = float(np.max(np.abs(pts))) or 1.0
    if hull.volume <= HULL_TOL * scale ** 3:
        raise FlatBodyError("hull volume is numerically zero")
    simplices = hull.simplices
    # dense hulls can triangulate merged facets into zero-area slivers; they
    # carry no surface measure and would only trip the facet validation
    a, b, c = (pts[simplices[:, k]] for k in range(3))
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    solid = simplices[areas > 1e-13 * scale * scale]
    keep = np.unique(solid)
    remap = np.full(pts.shape[0], -1, dtype=int)
    remap[keep] = np.arange(keep.size)
    return Polytope(pts[keep], remap[solid], symmetric=symmetric)


def chords(P, bases, direction):
    """Clip the lines base + t*direction against every facet half-space.

    Returns arrays (f, g) with one entry per row of bases, NaN where the line
    misses P; endpoints lie on the boundary to ~1e-9 of the body scale.
    """
    den = P.facet_normals @ direction                            # (F,)
    num = P.facet_offsets[None, :] - bases @ P.facet_normals.T   # (N, F)
    scale = float(np.max(np.abs(P.vertices))) or 1.0
    tol = 1e-12 * scale
    lo = np.full(bases.shape[0], -np.inf)
    hi = np.full(bases.shape[0], np.inf)
    pos = den > tol
    neg = den < -tol
    par = ~pos & ~neg
    if np.any(pos):
        hi = np.min(num[:, pos] / den[pos], axis=1)
    if np.any(neg):
        lo = np.max(num[:, neg] / den[neg], axis=1)
    miss = ~np.isfinite(lo) | ~np.isfinite(hi) | (lo > hi + 1e-9 * scale)
    if np.any(par):
        miss |= np.any(num[:, par] < -1e-9 * scale, axis=1)
    mid = 0.5 * (lo + hi)
    lo = np.minimum(lo, mid)
    hi = np.maximum(hi, mid)
    lo[miss] = np.nan
    hi[miss] = np.nan
    return lo, hi


def chord(P, base, direction):
    """Intersection {t : base + t*dir in P} as (f, g), or None if the line misses."""
    lo, hi = chords(P, as_vec(base, 3)[None, :], as_vec(direction, 3))
    return None if np.isnan(lo[0]) else (float(lo[0]), float(hi[0]))


def slice_area(P, x, s):
    """Area of the section polygon P cut by the plane <y, x> = s.

    Returns 0 when s is at or beyond the support values in +-x.  The section
    boundary is assembled facet by facet from edge/plane crossings and summed
    with a consistent orientation, so no angular sorting is needed.
    """
    u = as_vec(x, 3)
    nu = np.linalg.norm(u)
    if nu == 0.0:
        raise InputError("direction must be nonzero")
    u = u / nu
    s = float(s) / nu
    h_plus = float(P.support(u))
    h_minus = float(P.support(-u))
    scale = float(np.max(np.abs(P.vertices))) or 1.0
    if s >= h_plus - 1e-14 * scale or s <= -h_minus + 1e-14 * scale:
        return 0.0
    heights = P.vertices @ u
    tol = 1e-12 * scale
    total = 0.0
    for tri, n in zip(P.facets, P.facet_normals):
        hv = heights[tri] - s
        pts = []
        on_plane = 0
        for i in range(3):
            j = (i + 1) % 3
            hi_, hj_ = hv[i], hv[j]
            if abs(hi_) <= tol:
                pts.append(P.vertices[tri[i]])
                on_plane += 1
            elif hi_ * hj_ < 0.0 and abs(hj_) > tol:
                t = hi_ / (hi_ - hj_)
                pts.append(P.vertices[tri[i]] + t * (P.vertices[tri[j]] - P.vertices[tri[i]]))
        if len(pts) < 2:
            continue
        # a facet edge lying in the plane is shared with the neighbouring
        # facet; each side contributes it at half weight
        weight = 0.5 if on_plane == 2 and len(pts) == 2 else 1.0
        tdir = np.cross(u, n)
        proj = [np.dot(p, tdir) for p in pts]
        a = pts[int(np.argmin(proj))]
        b = pts[int(np.argmax(proj))]
        total += weight * 0.5 * np.dot(np.cross(a, b), u)
    return max(float(total), 0.0)


def slice_area_batch(P, x, svals):
    """Section areas for a batch of offsets strictly between vertex heights.

    Vectorized over facets and offsets; assumes no sample coincides with a
    vertex height (the quadratic-piece samplers guarantee this), so every
    crossing is transversal.
    """
    u = unitize(x)
    s = np.asarray(svals, dtype=float)
    v = P.vertices
    t = P.facets
    heights = v @ u                                    # (V,)
    hv = heights[t]                                    # (F, 3)
    d = hv[:, :, None] - s[None, None, :]              # (F, 3, S)
    pts = v[t]                                         # (F, 3, 3)
    seg_a = np.zeros((t.shape[0], s.size, 3))
    seg_b = np.zeros((t.shape[0], s.size, 3))
    have_a = np.zeros((t.shape[0], s.size), dtype=bool)
    cross_pt = []
    cross_ok = []
    for i in range(3):
        j = (i + 1) % 3
        di, dj = d[:, i, :], d[:, j, :]
        ok = di * dj < 0.0                             # (F, S)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(ok, di / (di - dj), 0.0)
        p = pts[:, i, None, :] + w[:, :, None] * (pts[:, j, None, :] - pts[:, i, None, :])
        cross_pt.append(p)
        cross_ok.append(ok)
    for p, ok in zip(cross_pt, cross_ok):
        first = ok & ~have_a
        second = ok & have_a
        seg_a[first] = p[first]
        seg_b[second] = p[second]
        have_a |= ok
    tdir = np.cross(u[None, :], P.facet_normals)       # (F, 3)
    swap = np.einsum("fsk,fk->fs", seg_b - seg_a, tdir) < 0.0
    a = np.where(swap[:, :, None], seg_b, seg_a)
    b = np.where(swap[:, :, None], seg_a, seg_b)
    contrib = 0.5 * np.einsum("fsk,k->fs", np.cross(a, b), u)
    # facets with fewer than two crossings contribute zero
    n_cross = sum(ok.astype(int) for ok in cross_ok)
    contrib[n_cross < 2] = 0.0
    areas = contrib.sum(axis=0)
    return np.maximum(areas, 0.0)


def slice_pieces(P, x, merge_tol=1e-9):
    """Sorted breakpoints of the piecewise-quadratic section-area function.

    Returns the unique vertex heights along x, with near-ties (relative to
    the body scale) merged.
    """
    u = unitize(x)
    heights = np.sort(P.vertices @ u)
    scale = max(float(heights[-1] - heights[0]), 1e-300)
    out = [heights[0]]
    for h in heights[1:]:
        if h - out[-1] > merge_tol * scale:
            out.append(h)
    return np.array(out)


def slice_quadratics(P, x):
    """Exact quadratic coefficients of the section area on each height piece.

    The area between consecutive vertex heights is a quadratic in the offset;
    it is recovered by Lagrange interpolation through three interior samples.
    Returns (breaks, coeffs) with coeffs[k] = (c0, c1, c2) for the piece
    [breaks[k], breaks[k+1]], area = c0 + c1*s + c2*s^2.
    """
    breaks = slice_pieces(P, x)
    if breaks.size < 2:
        raise FlatBodyError("body has no extent along the direction")
    coeffs = np.zeros((breaks.size - 1, 3))
    s_nodes = []
    for k in range(breaks.size - 1):
        a, b = breaks[k], breaks[k + 1]
        s_nodes.extend([a + (b - a) * f for f in (0.25, 0.5, 0.75)])
    areas = slice_area_batch(P, x, np.array(s_nodes))
    for k in range(breaks.size - 1):
        a, b = breaks[k], breaks[k + 1]
        s0, s1, s2 = (a + (b - a) * f for f in (0.25, 0.5, 0.75))
        y0, y1, y2 = areas[3 * k: 3 * k + 3]
        # quadratic through (s0,y0),(s1,y1),(s2,y2)
        den0 = (s0 - s1) * (s0 - s2)
        den1 = (s1 - s0) * (s1 - s2)
        den2 = (s2 - s0) * (s2 - s1)
        c2 = y0 / den0 + y1 / den1 + y2 / den2
        c1 = (-y0 * (s1 + s2) / den0 - y1 * (s0 + s2) / den1 - y2 * (s0 + s1) / den2)
        c0 = (y0 * s1 * s2 / den0 + y1 * s0 * s2 / den1 + y2 * s0 * s1 / den2)
        coeffs[k] = (c0, c1, c2)
    return breaks, coeffs


def adaptive_simpson(f, a, b, tol=1e-9, max_depth=40):
    """Adaptive Simpson quadrature with absolute tolerance."""
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, max_depth)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_simpson_rec(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _simpson_rec(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1))
