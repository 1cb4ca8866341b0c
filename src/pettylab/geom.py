"""Vector/exterior algebra and 3-D polytope geometry.

Everything downstream (zonotope calculus, invariants, symmetrization) sits on
the primitives in this module: triangulated convex hulls with outward
normals (scipy's Qhull, imported at the first hull), support values, line
chords and planar slices, and a deterministic sphere grid for extremization.

All operations are pure functions of immutable inputs; floating point (IEEE
double) throughout, with tolerances stated per operation.
"""

import operator
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


def _count(v, name):
    """v as a Python int via operator.index; InputError for a float or other non-integer."""
    try:
        return operator.index(v)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {v!r}") from None


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


def cross(u, w):
    """u x w over the last axis, broadcast: np.cross to the bit, without its axis handling."""
    return np.subtract(u[..., _NEXT] * w[..., _PREV], u[..., _PREV] * w[..., _NEXT])


def plane_basis(x):
    """Orthonormal pair (e1, e2) spanning the plane orthogonal to the unit x."""
    a = np.array([1.0, 0.0, 0.0]) if abs(x[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = unitize(cross(x, a))
    return e1, cross(x, e1)


# slice_quadratics sums a segment by prefix sums when (1 + W/g)(1 + W/g') <=
# (1 + 1/_TAU)^2, g and g' its edges' height gaps and W the height of a band,
# so that its terms stay within 121 R^2 (its rounding bound).  With one band
# at 1/32 (1089 R^2), q drifted up to 6e-13 from the per-piece sum on small
# hulls and failed the 1e-12 SL(3) covariance test on 2 of 3,000 draws; at
# 1/10 the worst of 7,000 draws used 0.89 of that tolerance
_TAU = 1.0 / 10.0
# one band per _BAND vertices, rounded up: fewer bands cost less per call, more
# keep more segments wide (icospheres 1, 2 and 3 take 1, 3 and 11)
_BAND = 64
# up to this many (segment, piece) pairs in a call, slice_quadratics sums
# every segment piece by piece, with no bands, difference array or prefix
# sum.  Measured with numpy 2 on one core: the per-piece pass costs ~50 ns
# per pair, the bands' set-up ~60 us per call plus less per segment than a
# segment's pieces cost, and the two meet at 4,000-6,000 pairs (a few
# directions of icosphere1, a refinement step of any body up to about 100
# vertices, a grid chunk of the octahedron)
_PER_PIECE_PAIRS = 4096
# Bytes of per-direction temporaries one chunk of a batched evaluation holds.
_CHUNK_BYTES = 2**20
# Below this many directions a chunk, _reduce_dots reduces each direction
# along its own contiguous row of products.  The (m, d) layout reduces
# across rows instead, strided: over 1,500-32,000 rows, 2-16 directions took
# 1.7-7 times as long that way (numpy 2, one core), and near 64 directions
# the two cost the same.  A chunk of _CHUNK_BYTES holds 64 directions up to
# 2,048 rows, so grids over fewer rows keep the (m, d) layout and those over
# more take (d, m).
_FEW_DIRECTIONS = 64


def _chunks(d, row_bytes):
    """Slices of d directions, each about _CHUNK_BYTES at row_bytes apiece."""
    step = max(1, _CHUNK_BYTES // max(row_bytes, 1))
    return (slice(lo, lo + step) for lo in range(0, d, step))


# np.max without its Python dispatch, and without the ~0.1 us of looking it up
_MAX = np.maximum.reduce


def _abs_sum(dots, axis):
    """sum of |dots| along axis, in place (np.sum without its ~4 us of Python dispatch)."""
    return np.add.reduce(np.abs(dots, out=dots), axis)


def _reduce_dots(C, X, maximum=False, signs=False):
    """sum over the rows c of C (m, 3) of |<c, x>|, or with maximum the max of <c, x>.

    One value per row x of X (d, 3), or one for a single x (3,): the sum is
    a zonotope's support or a pair shadow, the max a polytope's support.  A
    stack C (b, m, 3) with X (b, d, 3) gives each member its row of values,
    bit for bit those of a call of its own: the members go through the same
    products, in groups of about _CHUNK_BYTES.  Products beyond about
    _CHUNK_BYTES go in chunks of directions; chunks of fewer than
    _FEW_DIRECTIONS directions reduce contiguous rows of products (d, m),
    wider ones the rows of (m, d).  The max is exact, but BLAS may round a
    product by its place in the call, and sums add in another order, so the
    two layouts, or a chunk and a whole call, agree to rounding, not bit for
    bit.  Either costs about 2 ns per row and direction.
    With signs (sums, C (m, 3) and X (d, 3) only), (values, S): S[i] sums
    +-c, signed as <c, X[i]> (-c where it is 0), from the chunk of products
    its value is reduced from, so the values are those of the call without
    signs bit for bit.
    """
    # the axis goes by position: a keyword costs more than a small reduction's arithmetic
    reduce = _MAX if maximum else _abs_sum
    if X.ndim == 1:
        return reduce(C @ X, 0)
    m, d = C.shape[-2], X.shape[-2]
    # the directions of a chunk (_chunks); a call with no rows is one chunk
    width = min(d, max(1, _CHUNK_BYTES // max(8 * m, 1)))
    few = width < _FEW_DIRECTIONS
    if C.ndim == 2 and width == d and not signs:  # the one pass of the chunks below
        return reduce(X @ C.T, 1) if few else reduce(C @ X.T, 0)
    Cs, Xs = (C, X) if C.ndim == 3 else (C[None], X[None])
    out = np.empty(Xs.shape[:2])
    # S = 2 sum_{<c, x> > 0} c - sum c, from a mask of the products beside
    # them (an eighth of their bytes): a second float buffer took 2-3 times
    # as long, its pages faulted in again at every call
    if signs:
        S, total, positive = np.empty(X.shape), C.sum(axis=0), np.empty(width * m, dtype=bool)
    # every pass's products go into the first pass's buffer: a fresh one per
    # pass is handed back to the kernel and faulted in again
    buf = None
    # as many members a pass as one chunk of directions of each fills
    for grp in _chunks(len(Xs), 8 * m * width):
        for sl in _chunks(d, 8 * m):
            Cg, Xg = Cs[grp], Xs[grp, sl]
            L, R = (Xg, Cg.swapaxes(1, 2)) if few else (Cg, Xg.swapaxes(1, 2))
            shape = L.shape[:2] + R.shape[2:]
            size = shape[0] * shape[1] * shape[2]
            if buf is None:
                buf = np.empty(size)
            dots = np.matmul(L, R, out=buf[:size].reshape(shape))
            if signs:
                mask = np.greater(dots, 0.0, out=positive[:size].reshape(shape))
            out[grp, sl] = reduce(dots, 2 if few else 1)
            if signs:  # the reduced products' buffer takes the mask as 0.0 and 1.0
                np.copyto(dots, mask)
                S[sl] = 2.0 * ((dots[0] if few else dots[0].T) @ C) - total
    out = out if C.ndim == 3 else out[0]
    return (out, S) if signs else out


def _frames(U):
    """Rows e1, e2 completing each unit row u of U to a right-handed frame.

    Branch-free construction of Duff et al. (2017), also finite at u = 0.
    """
    x, y, z = U.T
    s = np.copysign(1.0, z)
    a = -1.0 / (s + z)
    b = x * y * a
    # columns filled in place: np.stack costs more than the arithmetic on few rows
    e1, e2 = np.empty((2,) + U.shape)
    e1[:, 0], e1[:, 1], e1[:, 2] = 1.0 + s * x * x * a, s * b, -s * x
    e2[:, 0], e2[:, 1], e2[:, 2] = b, s + y * y * a, -y
    return e1, e2


@lru_cache(maxsize=8, typed=True)
def fibonacci_sphere(n):
    """Deterministic, approximately equidistributed grid of n unit vectors.

    Returns a cached, read-only (n, 3) array; n must be an integer (a float
    such as 100.0 too is an error, cached or not).
    """
    n = _count(n, "sphere grid size")
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
        cr = cross(u, w)
        flip = np.einsum("ij,ij->i", cr, a - inner) < 0.0
        # w x u rather than -(u x w), which differs from it in the sign of zeros
        cr[flip] = cross(w[flip], u[flip])
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
        self.volume = float(np.einsum("ij,ij->i", cross(a, b), c).sum() / 6.0)

    def _symmetry_defect(self):
        """How far the reflected vertex set pokes outside the facet planes.

        Zero for an exactly centrally symmetric body; tolerance-based hulls
        may drop one vertex of an antipodal pair combinatorially, so the
        meaningful invariant is geometric containment of -v, not vertex-set
        closure.  max over v of <-v, n> is the support at -n (negation is
        exact, and a facet's offset comes off after its max), so the check
        runs in the support's chunks.
        """
        outside = self.support(-self.facet_normals) - self.facet_offsets
        return float(max(0.0, np.max(outside)))

    def support(self, X):
        """Support values max over vertices of <x, v>, per row of X (or for one x)."""
        return _reduce_dots(self.vertices, np.asarray(X, dtype=float), True)

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
    areas = 0.5 * np.linalg.norm(cross(b - a, c - a), axis=1)
    solid = simplices[areas > 1e-13 * scale * scale]
    used = np.zeros(pts.shape[0], dtype=bool)
    used[solid] = True
    keep = np.flatnonzero(used)
    remap = np.full(pts.shape[0], -1, dtype=int)
    remap[keep] = np.arange(keep.size)
    return Polytope(pts[keep], remap[solid], symmetric=symmetric)


def chords(P, bases, direction):
    """Clip the lines base + t*direction against every facet half-space.

    Returns arrays (f, g) with one entry per row of bases, NaN where the line
    misses P; endpoints lie on the boundary to ~1e-9 of the body scale.  The
    bases go in chunks of about _CHUNK_BYTES of (base, facet) arrays, in one
    pass when they fit.
    """
    den = P.facet_normals @ direction                            # (F,)
    scale = float(np.max(np.abs(P.vertices))) or 1.0
    # den is a cosine times |direction|, whatever the body's size
    tol = 1e-12 * float(np.linalg.norm(direction))
    pos = den > tol
    neg = den < -tol
    par = ~pos & ~neg
    n = bases.shape[0]
    lo = np.full(n, -np.inf)
    hi = np.full(n, np.inf)
    miss = np.zeros(n, dtype=bool)
    # the offsets less the products, and their quotients by den: ~24 bytes a facet
    for sl in _chunks(n, 24 * den.size):
        num = P.facet_offsets[None, :] - bases[sl] @ P.facet_normals.T   # (N, F)
        if np.any(pos):
            hi[sl] = np.min(num[:, pos] / den[pos], axis=1)
        if np.any(neg):
            lo[sl] = np.max(num[:, neg] / den[neg], axis=1)
        if np.any(par):
            miss[sl] = np.any(num[:, par] < -1e-9 * scale, axis=1)
    miss |= ~np.isfinite(lo) | ~np.isfinite(hi) | (lo > hi + 1e-9 * scale)
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
    proj = np.einsum("fij,fj->fi", pts, cross(u, P.facet_normals))
    rows = np.arange(pts.shape[0])
    a = pts[rows, np.argmin(np.where(found, proj, np.inf), axis=1)]
    b = pts[rows, np.argmax(np.where(found, proj, -np.inf), axis=1)]
    # a facet edge lying in the plane is shared with the neighbouring facet;
    # each side contributes it at half weight
    n_found = found.sum(axis=1)
    weight = np.where((on.sum(axis=1) == 2) & (n_found == 2), 0.5, 1.0)
    terms = weight * 0.5 * np.einsum("fj,j->f", cross(a, b), u)
    return max(float(np.sum(terms[n_found >= 2])), 0.0)


def _at_pieces(coef, sigma, w):
    """(a, b, c) of alpha + beta s + gamma s^2 on the piece s = sigma + t w, t in [0, 1]."""
    al, be, ga = coef
    return np.stack([al + sigma * (be + sigma * ga), w * (be + 2.0 * sigma * ga), w * w * ga])


def slice_quadratics(P, X):
    """Section areas of P along each row of X as exact quadratics per piece.

    Returns (H, C): H[i] the vertex heights along u_i = x_i/|x_i|, sorted,
    and C[i, k] = (a, b, c), the area at height H[i, k] + t (H[i, k+1] -
    H[i, k]) being a + b t + c t^2 for t in [0, 1]; one direction gives H of
    shape (V,) and C of (V-1, 3).  Pieces of zero width get zero
    coefficients.

    A facet cut at height s adds (1/2) sigma det(A, B, u), A and B its cut
    points, which move along its edges at (edge vector)/(edge height gap).
    A runs on the long edge, from the lowest to the highest vertex, and B on
    the short edge of one of the facet's two segments: lowest to middle
    vertex, then middle to highest.  The heights split into bands, one per
    _BAND vertices rounded up, each w/bands high (w = h(u) + h(-u) the
    width); a piece is in the band of its lowest height, and W is the band
    height or the widest piece if wider.  A segment whose short and long
    edges have height gaps g and g' is wide when (1 + W/g)(1 + W/g') <= (1 +
    1/_TAU)^2; every segment with g >= _TAU W is.  A wide segment's term, a
    quadratic in s - c about the center c of the band of its first piece,
    enters a difference array at that piece and leaves after its last piece
    in the band; in each later band it reaches it enters again, shifted to
    that band's center.  One prefix sum over the vertex heights then gives
    every piece its quadratic about its band's center: O(F + V log V) per
    direction, and one more entry for each band a segment crosses.  A narrow
    segment adds its term to each piece it spans, expanded about that
    piece's lowest height, so no coefficient grows as gaps shrink.  A call
    whose segments span at most _PER_PIECE_PAIRS (segment, piece) pairs in
    all takes every segment as narrow: one per-piece pass, no bands.

    Rounding: on its own heights a segment's cut points lie within R, the
    largest vertex radius in the plane.  A wide segment is expanded about a
    center within W/2 of its heights, and every piece reads its sums within
    W/2 of its band's center and is at most W wide; at slopes of at most
    2R/g and 2R/g', each term is then at most (1 + W/g)(1 + W/g') R^2 <=
    (1 + 1/_TAU)^2 R^2 = 121 R^2.  The bound is quadratic in 1/_TAU, as both
    cut points are carried away from their edges.  A piece's sums hold two
    terms per wide segment and band it reached before, at most 4F bands
    terms (F facets), so its area is off by at most about 4F bands (1 +
    1/_TAU)^2 eps R^2, or 1.1e-13 F R^2 with one band; narrow terms round as
    single terms.  Temporaries grow with the rows of X times the facets;
    q_direction passes chunks of rows.
    """
    U = np.atleast_2d(np.asarray(X, dtype=float))
    norms = np.sqrt(np.add.reduce(U * U, axis=1))
    if U.shape[1] != 3 or not (np.isfinite(norms) & (norms > 0.0)).all():
        raise InputError("directions must be nonzero finite 3-vectors")
    U = U / norms[:, None]
    d, V, F = U.shape[0], P.vertices.shape[0], P.facets.shape[0]
    n = d * V
    e1, e2 = _frames(U)
    h = U @ P.vertices.T
    # vertex j of direction i goes to i V + (its rank in height)
    order = np.argsort(h, axis=1)
    order += V * np.arange(d)[:, None]
    order = order.ravel()
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    H = h.ravel()[order]
    # plane coordinates as complex numbers: det(p, q, u) = Im(conj(p) q)
    z = ((e1 + 1j * e2) @ P.vertices.T).ravel()[order]
    r0, r1, r2 = rank.reshape(d, V)[:, P.facets.T].transpose(1, 0, 2)
    # facet corners run counter-clockwise about the outward normal; sorting
    # them by height with an odd permutation reverses the cut segment
    half = 0.5 - ((r0 > r1) ^ (r1 > r2) ^ (r0 > r2))
    c = np.empty((3, d, F), dtype=np.intp)
    lo, mid, hi = c
    np.minimum(np.minimum(r0, r1), r2, out=lo)
    np.maximum(np.maximum(r0, r1), r2, out=hi)
    np.subtract(r0 + r1 + r2 - lo, hi, out=mid)
    hc, zc = H[c], z[c]
    # the segments' short edges, lowest-middle and middle-highest, and the
    # long edge, lowest-highest; a gap of zero height spans no piece and gets
    # slope 0
    gap, long_gap = hc[1:] - hc[:2], hc[2] - hc[0]
    inv = lambda x: np.divide(1.0, x, out=np.zeros_like(x), where=x > 0.0)
    m = (zc[1:] - zc[:2]) * inv(gap)
    g = ((zc[2] - zc[0]) * (half * inv(long_gap))).conj()
    H = H.reshape(d, V)
    dH = np.zeros((d, V))
    np.subtract(H[:, 1:], H[:, :-1], out=dH[:, :-1])
    start, stop = c[:2].ravel(), c[1:].ravel()
    # below the crossover every segment is narrow: one per-piece pass costs
    # less than the bands' set-up
    banded = int((hi - lo).sum()) > _PER_PIECE_PAIRS
    if banded:
        # the heights split into bands, one per _BAND vertices rounded up; a
        # piece belongs to the band of its lowest height
        bands = -(-V // _BAND)
        step = (H[:, -1:] - H[:, :1]) / bands
        band = np.minimum(((H - H[:, :1]) / step).astype(np.intp), bands - 1)
        # (1 + W/g)(1 + W/g_long) <= (1 + 1/_TAU)^2, W the band height or the
        # widest piece: see the rounding bound
        W = np.maximum(step, dH.max(axis=1, keepdims=True))
        wide = (gap + W) * (long_gap + W) <= (1.0 + 1.0 / _TAU) ** 2 * gap * long_gap
        # a wide segment is expanded about the center of the band of its
        # first piece, a narrow one about its lowest height h_b
        center = H[:, :1] + (band + 0.5) * step
        ref = np.where(wide, center.ravel()[c[:2]], hc[:2])
    else:
        ref = hc[:2]
    # A = a + (s - h_lo) g, B = b + (s - h_b) m: det(A, B) = alpha + beta
    # (s - ref) + gamma (s - ref)^2, from conj(A), conj(g), B and m at ref
    A, B = (half * zc[0]).conj() + (ref - hc[0]) * g, zc[:2] + (ref - hc[:2]) * m
    al, Am, gB, ga = ((p * q).imag for p in (A, g) for q in (B, m))
    coef = np.stack([al, Am + gB, ga]).reshape(3, -1)
    ref, first = ref.ravel(), start
    if banded:
        # a wide segment enters a difference array at its first piece and
        # leaves after its last piece in that band; in each later band it
        # reaches (none with one band) it enters again at the band's first
        # piece, shifted to the band's center
        enter, leave, w = start, stop, np.where(wide.ravel(), coef, 0.0)
        if bands > 1:
            edges = V * np.arange(d)[:, None] + (band[:, :-1, None] < np.arange(bands + 1)).sum(axis=1)
            b0 = band.ravel()[c[:2]]
            leave = np.minimum(stop, edges[np.arange(d)[:, None], b0 + 1].ravel())
            count = np.where(wide, band.ravel()[c[1:] - 1] - b0, 0).ravel()
            seg = np.repeat(np.arange(count.size), count)
            later = np.repeat(count - np.cumsum(count), count) + np.arange(seg.size) + 1
            row, bb = seg % (d * F) // F, b0.ravel()[seg] + later
            enter = np.concatenate([enter, edges[row, bb]])
            leave = np.concatenate([leave, np.minimum(stop[seg], edges[row, bb + 1])])
            w = np.concatenate([w, _at_pieces(w.take(seg, axis=1), later * step[row, 0], 1.0)], axis=1)
        diff = np.empty((3, d, V))
        for acc, wk in zip(diff, w):
            acc.flat = np.bincount(enter, wk, minlength=n) - np.bincount(leave, wk, minlength=n)
        out = _at_pieces(np.cumsum(diff, axis=2), H - center, dH).reshape(3, n)
        narrow = np.flatnonzero(~wide & (gap > 0.0))
        coef, ref, first, stop = coef.take(narrow, axis=1), ref[narrow], first[narrow], stop[narrow]
    # each narrow segment adds its term to every piece k it spans, at
    # s - h_b = sigma + t dH[k], sigma = H[k] - h_b: a piece sums alpha +
    # beta sigma + gamma sigma^2, beta + 2 gamma sigma and gamma over its
    # segments, in groups of about a chunk's worth of (segment, piece)
    # pairs, and scales the last two sums by dH[k] and dH[k]^2
    span = stop - first
    cum = np.cumsum(span)
    group = _CHUNK_BYTES // 128
    if cum[-1:].sum() > group:
        bounds = np.unique(np.searchsorted(cum, np.arange(0, cum[-1], group), side="right")).tolist()
    else:
        bounds = [0] if span.size else []
    sums = np.zeros((3, n))
    for i, j in zip(bounds, bounds[1:] + [span.size]):
        k = np.repeat(first[i:j] + span[i:j] - cum[i:j], span[i:j])
        k += np.arange(cum[i] - span[i], cum[j - 1])
        seg = np.repeat(np.arange(i, j), span[i:j])
        sigma = H.ravel()[k] - ref[seg]
        # take: indexing a later axis with an array is several times slower
        al, be, ga = coef.take(seg, axis=1)
        be += sigma * ga
        for acc, term in zip(sums, (al + sigma * be, be + sigma * ga, ga)):
            acc += np.bincount(k, term, minlength=n)
    w = dH.ravel()
    sums[1] *= w
    sums[2] *= w * w
    if banded:
        sums += out
    C = sums.reshape(3, d, V).transpose(1, 2, 0)[:, :-1]
    C[dH[:, :-1] == 0.0] = 0.0
    return (H[0], C[0]) if np.ndim(X) == 1 else (H, C)
