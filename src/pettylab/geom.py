"""Vector/exterior algebra and 3-D polytope geometry.

Everything downstream (zonotope calculus, invariants, symmetrization) sits on
the primitives in this module: triangulated convex hulls with outward
normals (scipy's Qhull, imported at the first hull), support values, line
chords and planar slices, and a deterministic sphere grid for extremization.

All operations are pure functions of immutable inputs; floating point (IEEE
double) throughout, with tolerances stated per operation.
"""

from functools import cached_property, lru_cache

import numpy as np

from .errors import FlatBodyError, InputError

# Coplanarity/merge tolerance for hull construction.
HULL_TOL = 1e-10
# (b x c)_k = b_{k+1} c_{k+2} - b_{k+2} c_{k+1}
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


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


def unit_rows(A):
    """The nonzero rows of A, each scaled to unit length, as a read-only array."""
    norms = np.linalg.norm(A, axis=1)
    rows = A[norms > 0.0] / norms[norms > 0.0, None]
    rows.flags.writeable = False
    return rows


def plane_basis(x):
    """Orthonormal pair (e1, e2) spanning the plane orthogonal to the unit x."""
    a = np.array([1.0, 0.0, 0.0]) if abs(x[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = unitize(np.cross(x, a))
    return e1, np.cross(x, e1)


# Bytes of per-direction temporaries one chunk of a batched evaluation holds.
_CHUNK_BYTES = 2**20


def _chunks(d, row_bytes):
    """Slices of d directions, each about _CHUNK_BYTES at row_bytes apiece."""
    step = max(1, _CHUNK_BYTES // max(row_bytes, 1))
    return (slice(lo, lo + step) for lo in range(0, d, step))


def _frames(U):
    """Rows e1, e2 completing each unit row u of U to a right-handed frame.

    Branch-free construction of Duff et al. (2017), also finite at u = 0.
    """
    x, y, z = U.T
    s = np.copysign(1.0, z)
    a = -1.0 / (s + z)
    b = x * y * a
    return (np.stack([1.0 + s * x * x * a, s * b, -s * x], axis=1),
            np.stack([b, s + y * y * a, -y], axis=1))


@lru_cache(maxsize=8)
def fibonacci_sphere(n):
    """Deterministic, approximately equidistributed grid of n unit vectors.

    Returns a cached, read-only (n, 3) array.
    """
    if n < 2:
        raise InputError("sphere grid needs at least 2 points")
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    th = golden * i
    pts = np.column_stack([r * np.cos(th), r * np.sin(th), z])
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts.flags.writeable = False
    return pts


class Polytope:
    """Triangulated 3-D convex polytope: vertices, facet triples, symmetry flag.

    Facet triples are oriented outward at construction; per-facet unit
    normals, areas and plane offsets are derived once and cached.  Like every
    body type it answers volume, support(X), surface_measure(),
    projection_generators(), pi_body, candidates and hull.
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
        u, w = b - a, c - a
        # u x w = p - q, row-major as np.cross forms it; a flip swaps p and q
        p, q = u[:, _NEXT] * w[:, _PREV], u[:, _PREV] * w[:, _NEXT]
        cr = np.subtract(p, q, order="C")
        flip = np.einsum("ij,ij->i", cr, a - inner) < 0.0
        cr[flip] = q[flip] - p[flip]
        t = t.copy()
        t[flip] = t[flip][:, [0, 2, 1]]
        self.facets = t
        b, c = v[t[:, 1]], v[t[:, 2]]
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

    @cached_property
    def candidates(self):
        """Unit facet normals, then unit vertex rays: directions where M, m and Q may sit."""
        return unit_rows(np.vstack([self.facet_normals, self.vertices]))

    @property
    def hull(self):
        """The body the slice functional cuts: P itself."""
        return self

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
    # imported here: scipy.spatial takes ~0.35 s to load, and many commands build no hull
    from scipy.spatial import ConvexHull, QhullError
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
    # den is a cosine times |direction|, whatever the body's size
    tol = 1e-12 * float(np.linalg.norm(direction))
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
    tol = 1e-12 * scale
    # per facet corner i: its height above the plane, and that of corner i+1
    h0 = (P.vertices @ u)[P.facets] - s
    h1 = np.roll(h0, -1, axis=1)
    vi = P.vertices[P.facets]
    on = np.abs(h0) <= tol
    # edge i -> i+1 crosses the plane strictly between its ends
    cuts = ~on & (h0 * h1 < 0.0) & (np.abs(h1) > tol)
    t = h0 / np.where(cuts, h0 - h1, 1.0)
    pts = np.where(on[..., None], vi, vi + t[..., None] * (np.roll(vi, -1, axis=1) - vi))
    found = on | cuts
    # the chord's ends are the extreme points along the facet's in-plane tangent
    proj = np.einsum("fij,fj->fi", pts, np.cross(u, P.facet_normals))
    rows = np.arange(pts.shape[0])
    a = pts[rows, np.argmin(np.where(found, proj, np.inf), axis=1)]
    b = pts[rows, np.argmax(np.where(found, proj, -np.inf), axis=1)]
    # a facet edge lying in the plane is shared with the neighbouring facet;
    # each side contributes it at half weight
    n_found = found.sum(axis=1)
    weight = np.where((on.sum(axis=1) == 2) & (n_found == 2), 0.5, 1.0)
    terms = weight * 0.5 * np.einsum("fj,j->f", np.cross(a, b), u)
    return max(float(np.sum(terms[n_found >= 2])), 0.0)


def slice_quadratics(P, X):
    """Section areas of P along each row of X as exact quadratics per piece.

    Returns (H, C): H[i] the vertex heights along u_i = x_i/|x_i|, sorted,
    and C[i, k] = (a, b, c), the area at height H[i, k] + t (H[i, k+1] -
    H[i, k]) being a + b t + c t^2 for t in [0, 1]; one direction gives H of
    shape (V,) and C of (V-1, 3).  Each facet adds (1/2) sigma det(A, B, u)
    to the pieces between its lowest and highest vertex, A and B its cut
    points, which move along edges at (edge vector)/(edge height gap); no
    piece an edge spans is wider than its gap, so no coefficient grows as
    pieces shrink.  Pieces of zero width get zero coefficients.  Temporaries
    grow with the rows of X times the facets; q_direction passes chunks of
    rows.
    """
    U = np.atleast_2d(np.asarray(X, dtype=float))
    norms = np.sqrt(np.sum(U * U, axis=1))
    if U.shape[1] != 3 or not np.all(np.isfinite(norms) & (norms > 0.0)):
        raise InputError("directions must be nonzero finite 3-vectors")
    U = U / norms[:, None]
    d, V = U.shape[0], P.vertices.shape[0]
    e1, e2 = _frames(U)
    h = U @ P.vertices.T
    order = np.argsort(h, axis=1)
    flat = order + V * np.arange(d)[:, None]
    H = h.ravel()[flat].reshape(d, V)
    Hf = H.ravel()
    # plane coordinates as complex numbers: det(p, q, u) = Im(conj(p) q)
    z = ((e1 + 1j * e2) @ P.vertices.T).ravel()[flat.ravel()]
    r = np.argsort(order, axis=1)[:, P.facets]
    # facet corners run counter-clockwise about the outward normal; sorting
    # them by height with an odd permutation reverses the cut segment
    odd = (r[..., 0] > r[..., 1]) ^ (r[..., 1] > r[..., 2]) ^ (r[..., 0] > r[..., 2])
    r.sort(axis=2)
    r += V * np.arange(d)[:, None, None]
    hr, zr = Hf[r], z[r]
    # A = a + (s - h_lo) g on the long edge, B = b + (s - h_b) m on the edge
    # from the lowest to the middle vertex (first segment of pieces) or from
    # the middle to the highest (second segment); the area term is
    # det(A, B) = c0 + (s - h_b) c1 + (s - h_lo) (c2 + (s - h_b) c3)
    half = np.where(odd, -0.5, 0.5)[..., None]
    # a gap of zero height spans no piece: its slope is never used, set it 0
    slope = lambda dz, gap: dz * np.divide(1.0, gap, out=np.zeros_like(gap), where=gap > 0.0)
    a, b = half * zr[..., :1], zr[..., :2]
    g = half * slope(zr[..., 2:] - zr[..., :1], hr[..., 2:] - hr[..., :1])
    m = slope(np.diff(zr, axis=2), np.diff(hr, axis=2))
    lh, bh = np.repeat(hr[..., 0].ravel(), 2), hr[..., :2].ravel()
    start, count = r[..., :2].ravel(), np.diff(r, axis=2).ravel()
    c0, c1, c2, c3 = ((p.conj() * q).imag.ravel() for p, q in ((a, b), (a, m), (g, b), (g, m)))
    dH = np.diff(H, axis=1, append=H[:, -1:]).ravel()
    out = np.zeros((3, d * V))
    # (facet, piece) pairs go in groups whose dozen arrays fill about a chunk
    cum, group = np.cumsum(count), _CHUNK_BYTES // 128
    cuts = np.searchsorted(cum, np.arange(group, cum[-1], group), side="right")
    bounds = np.concatenate(([0], cuts, [count.size]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        n = count[lo:hi]
        idx = np.repeat(start[lo:hi] - (np.cumsum(n) - n), n) + np.arange(n.sum())
        rep = lambda v: np.repeat(v[lo:hi], n)
        w, dl, db = dH[idx], Hf[idx] - rep(lh), Hf[idx] - rep(bh)
        k1, k2, k3 = rep(c1), rep(c2), rep(c3)
        coef = (rep(c0) + db * k1 + dl * (k2 + db * k3), w * (k1 + k2 + (dl + db) * k3),
                w * w * k3)
        for row, c in zip(out, coef):
            row += np.bincount(idx, weights=c, minlength=d * V)
    C = out.T.reshape(d, V, 3)[:, :-1]
    C[dH.reshape(d, V)[:, :-1] == 0.0] = 0.0
    return (H[0], C[0]) if np.ndim(X) == 1 else (H, C)
