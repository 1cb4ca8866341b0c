"""Zonotope calculus: support, volume, shadows, and projection bodies.

A centrally symmetric zonotope Z = sum of segments [-x_i, x_i] is stored by
its generator list.  Everything here reduces to sums of absolute 3x3
determinants over generator tuples:

    h_Z(x)            = sum_i |<x, x_i>|
    V(Z)              = 8 * sum_{i<j<k} |det(x_i, x_j, x_k)|
    V_2(Z | x^perp)   = 4 * sum_{i<j} |det(x_i, x_j, x)|

and the projection body of Z is the zonotope generated by {4 (x_i x x_j)}.
The facet normals of a polytope give its projection body the same way, one
generator (area/2) * normal per triangle.  Either body keeps Pi K as its
cached `pi_body`.

Shadows are the one primitive (`z_shadow_area`): the support of Pi^2 K is
the shadow of Pi K.  A shadow is summed over generator pairs, or, for many
generators, walked as the zonogon boundary in angular order (O(n log n) per
direction); both are exact, and both run over chunks of directions of
bounded size.  Either gives, from the same evaluation, the vertex of the
projection body that supports the direction (`z_shadow_area` with
vertices), which bounds the shadow in every other direction from below.  A
pair shadow and a support are the same sum, of |<c, x>| over the pair rows
or over the generators, and geom's one kernel of reductions over rows takes
both (`_reduce_dots`).

The pairs of Pi Z's generators come in closed form from one table of triple
determinants D_ijk = det(x_i, x_j, x_k) (`pi2_rows`).  With c_ij = x_i x x_j,
pairs sharing an index are parallel to a generator, c_ij x c_ik = D_ijk x_i,
so they merge into n rows W_i x_i with W_i = sum_{j<k; j,k != i} |D_ijk|;
disjoint pairs follow from Binet-Cauchy, c_ij x c_kl = D_ijl x_k - D_ijk x_l,
three pairings per 4-subset.  That is n + 3 C(n, 4) rows in place of
C(C(n, 2), 2): 20 for 45 at n = 5, 218 for 378 at n = 8.  The same table
gives the volume, so P, M and m of a zonotope round through one set of
determinants.  Crosses, determinants, rows and flatness also take stacks
(b, n, 3) of zonotopes of one size; `stack_ratios` takes a stack of any
length in chunks of members, forms them once for a chunk and sums its
members in one product, each as on its own, so each gets its own ratio;
`stack_volumes` and `stack_shadows` give a stack's volumes and shadows so.
"""

import itertools
from functools import cached_property, lru_cache

import numpy as np

from .errors import FlatBodyError, InputError
from .geom import _chunks, _frames, _reduce_dots, as_vec, convex_hull, cross, unit_rows

# Sort axis of merge_parallel; any unit vector works, a generic one keeps the
# windows of near-equal keys short for structured inputs.
_MERGE_AXIS = np.array([0.5488135, 0.71518937, 0.60276338])
_MERGE_AXIS /= np.linalg.norm(_MERGE_AXIS)


class GeneratorSet:
    """Generators x_1..x_n of the zonotope sum of [-x_i, x_i].

    Answers the body protocol (volume, support(X), surface_measure(),
    projection_generators(), the cached pi_body, candidates and hull).
    """

    symmetric = zonoid = True
    # for Pi Z, set by pi_body: the generators of Z and their triple_dets,
    # which give the pair rows (arrays, so Z and Pi Z form no cycle)
    _source = None

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

    @cached_property
    def _cross_rows(self):
        """cross_rows of the generators, formed once for pair_crosses and _dets."""
        return cross_rows(self.gens)

    @cached_property
    def _dets(self):
        """triple_dets of the generators: Z's volume and Pi Z's pair rows."""
        return triple_dets(self.gens, self._cross_rows)

    @cached_property
    def _crosses(self):
        """Nonzero crosses x_i x x_j over i < j: Pi generators and pair-sum rows.

        For Pi Z they are the merged rows pi2_rows of Z, which generate the
        same zonotope.
        """
        if self._source is None:
            return pair_crosses(self)
        rows = pi2_rows(*self._source)
        keep = _nonzero(rows)
        return rows if keep.all() else rows[keep]

    @cached_property
    def pi_body(self):
        """Pi Z as a GeneratorSet, kept for P and the support of Pi^2 Z."""
        pi = GeneratorSet(self.projection_generators())
        pi._source = self.gens, self._dets
        return pi

    @cached_property
    def candidates(self):
        """Unit generators, then unit crosses (_crosses): directions where M and m may sit."""
        return unit_rows(np.vstack([self.gens, self._crosses]))

    @cached_property
    def hull(self):
        """Z as a Polytope, the hull of its vertices: the body the slice functional cuts."""
        return convex_hull(zonotope_vertices(self), symmetric=True)

    @property
    def support_rows(self):
        """(gens, False): support(X) is the sum of |<x, x_i>| over them (_reduce_dots)."""
        return self.gens, False

    def support(self, X):
        """Support values sum_i |<x, x_i>|, per row of X (or for one x): _reduce_dots."""
        return _reduce_dots(self.gens, np.asarray(X, dtype=float))

    def projection_generators(self):
        """Generators 4 (x_i x x_j) of Pi Z, zero cross products skipped."""
        if is_flat(self.gens):
            raise FlatBodyError("projection body of a flat zonotope is degenerate")
        return 4.0 * self._crosses

    def surface_measure(self):
        """Each pair (i, j) spans two antipodal facets of area 4|x_i x x_j|."""
        g = self.projection_generators()
        area = np.linalg.norm(g, axis=1)
        unit = g / area[:, None]
        return np.vstack([unit, -unit]), np.concatenate([area, area])


def as_set(Z):
    """Accept a GeneratorSet or a raw (n, 3) array."""
    return Z if isinstance(Z, GeneratorSet) else GeneratorSet(Z)


# the index tables of the 16 generator counts used last are kept; those of
# pi2_rows take 41 kB at 13 generators and 0.5 MB at 24
@lru_cache(maxsize=16)
def _pairs(n):
    """Read-only indices (i, j) of the pairs i < j of n generators.

    The order is fixed, so determinant sums are reproducible bit for bit.
    """
    pairs = np.triu_indices(n, k=1)
    for t in pairs:
        t.flags.writeable = False
    return pairs


def cross_rows(G):
    """Crosses x_i x x_j over i < j in index order, zero ones kept: (..., C(n, 2), 3)."""
    i, j = _pairs(G.shape[-2])
    return cross(np.take(G, i, axis=-2), np.take(G, j, axis=-2))


def _nonzero(C):
    """Which rows of C (..., m, 3) are not exactly zero.

    A short row counts: near a flat body's thin axis every real row is
    short, and without them m reads below 6.
    """
    return np.any(C != 0.0, axis=-1)


def pair_crosses(Z):
    """Nonzero cross products x_i x x_j over i < j, in index order."""
    Z = as_set(Z)
    return Z._cross_rows[_nonzero(Z._cross_rows)]


def triple_dets(G, C=None):
    """det(x_i, x_j, x_k) = <x_i x x_j, x_k> over i < j < k, lexicographic, for G (..., n, 3).

    C, if given, is cross_rows(G), so that crosses formed once serve both.
    """
    n = G.shape[-2]
    dots = (cross_rows(G) if C is None else C) @ G.swapaxes(-1, -2)
    later = _pairs(n)[1][:, None] < np.arange(n)
    return np.compress(later.ravel(), dots.reshape(dots.shape[:-2] + (-1,)), axis=-1)


@lru_cache(maxsize=16)
def _pi2_index(n):
    """Read-only index tables of pi2_rows for n generators.

    Returns the triples through each generator, an (n, C(n-1, 2)) table, and
    for each 4-subset a < b < c < d in lexicographic order the triples
    (acd, abd, abc) and the generators (b, c, d), two (C(n, 4), 3) tables.
    """
    i, j = _pairs(n)
    r = np.arange(n)
    # the triples (i, j, k) in the order of triple_dets
    p, k = np.nonzero(j[:, None] < r)
    i, j = i[p], j[p]
    member = (i == r[:, None]) | (j == r[:, None]) | (k == r[:, None])
    through = np.nonzero(member)[1].reshape(n, -1)
    tid = np.zeros((n, n, n), dtype=np.intp)
    tid[i, j, k] = np.arange(k.size)
    up = r[:, None] < r
    a, b, c, d = np.nonzero(up[:, :, None, None] & up[:, :, None] & up)
    tables = (through, np.column_stack([tid[a, c, d], tid[a, b, d], tid[a, b, c]]),
              np.column_stack([b, c, d]))
    for t in tables:
        t.flags.writeable = False
    return tables


def pi2_rows(G, D):
    """Rows r with h_{Pi^2 Z}(x) = 4 sum_r |<r, x>|: the crosses of Pi Z's generators, merged.

    G (..., n, 3) are generators and D (..., C(n, 3)) their triple_dets.
    The n rows 16 W_i x_i stand for the pairs of Pi generators sharing the
    index i; each 4-subset a < b < c < d gives its three disjoint pairings
    16 (u_c - u_d), 16 (u_b + u_d), 16 (u_c - u_b) with u_b = D_acd x_b,
    u_c = D_abd x_c, u_d = D_abc x_d.  Zero rows are kept.
    """
    through, tq, gq = _pi2_index(G.shape[-2])
    # np.take keeps each stack member's values contiguous, so the sums below
    # add in the same order for a stack as for one member
    W = np.sum(np.take(np.abs(D), through, axis=-1), axis=-1)
    u = np.take(D, tq, axis=-1)[..., None] * np.take(G, gq, axis=-2)
    ub, uc, ud = u[..., 0, :], u[..., 1, :], u[..., 2, :]
    disjoint = np.stack([uc - ud, ub + ud, uc - ub], axis=-2)
    rows = np.concatenate([W[..., None] * G, disjoint.reshape(G.shape[:-2] + (-1, 3))],
                          axis=-2)
    return np.multiply(rows, 16.0, out=rows)


def is_flat(G):
    """Which generator sets G (..., n, 3) lie in a plane: singular values s_3 <= 1e-12 s_1."""
    if G.shape[-2] < 3:
        return np.ones(G.shape[:-2], dtype=bool)
    sv = np.linalg.svd(G, compute_uv=False)
    return sv[..., 2] <= 1e-12 * sv[..., 0]


def z_volume(Z):
    """Volume 8 * sum over generator triples of |det|; zero iff coplanar.

    Summed over the triple table for few generators; for many, as
    (2/3) * sum_k V_2(Z | x_k^perp) by zonogon walks, in O(n^2 log n): each
    triple appears once for each of its three members as direction.
    """
    Z = as_set(Z)
    if len(Z) < 3:
        return 0.0
    if _pair_path(len(Z), len(Z)):
        return 8.0 * float(np.sum(np.abs(Z._dets)))
    return 2.0 * float(np.sum(_sorted_shadow(Z.gens, Z.gens))) / 3.0


def stack_volumes(G):
    """z_volume of each zonotope of a stack G (b, n, 3), bit for bit.

    On z_volume's pair path the stack takes one triple_dets.
    """
    n = G.shape[1]
    if n >= 3 and _pair_path(n, n):
        return 8.0 * np.sum(np.abs(triple_dets(G)), axis=-1)
    return np.array([z_volume(g) for g in G])


def _pair_path(n, d, rows=None, vertices=False):
    """True when summing over pair rows costs less than walking sorted zonogons.

    n generators, d directions, and the rows the pair sum runs over, by
    default the C(n, 2) pairs (pair_row_count gives them for a body).  Measured
    with numpy 2 on one core: the pair sum costs ~2 ns per row and direction,
    for a refinement step's few directions as for a grid (_reduce_dots), the
    sorted walk ~60 ns per generator and direction plus ~80 us per call.
    So many directions switch to the walk from about 60 generators on, a
    single direction from ~350; Pi Z, with n + 3 C(n, 4) rows for C(n, 2)
    generators, switches from 14 generators of Z on.  With vertices the
    price is that of the vertex pass: the signed sums cost 1.8-2.3 times
    the plain pair sum, and the walk's vertices 1.35 times the plain walk
    (the candidates of the double cone and of 10- and 14-generator
    zonotopes), so a call priced so may walk where a plain one sums pairs.
    """
    if rows is None:
        rows = n * (n - 1) // 2
    if vertices:
        return 4 * rows * d <= 81 * n * d + 108_000
    return 2 * rows * d <= 60 * n * d + 80_000


def pair_row_count(Z):
    """How many rows Z's pair sum runs over, zero rows included.

    n + 3 C(n, 4) for Pi of a zonotope of n generators (pi2_rows), else the
    C(len(Z), 2) pairs; counted without building them.
    """
    if Z._source is None:
        n = len(Z)
        return n * (n - 1) // 2
    return pi2_count(len(Z._source[0]))


def pi2_count(n):
    """n + 3 C(n, 4): how many pi2_rows n generators give."""
    return n + n * (n - 1) * (n - 2) * (n - 3) // 8


def z_shadow_area(Z, X, d=None, vertices=False, vertex_price=False):
    """Shadow areas V_2(Z | x^perp) = 4 * sum over pairs of |det(x_i, x_j, x)|.

    One value per row of X, or one value for a single direction x; the value
    scales with |x|.  Exact on either path (see _pair_path), which is priced
    for d directions, by default the rows of X: rows of one grid evaluated
    in parts pass the grid's size, so each part takes the grid's path; with
    vertex_price, as a vertex pass whether or not it asks for vertices, so
    that calls with and without them read the same rows on one path.
    With vertices, (values, V): V[i] = 4 sum_{i<j} sign(det(x_i, x_j, x))
    x_i x x_j is the vertex of Pi Z where <., X[i]> reaches the shadow, so
    h_{Pi Z}(y) >= <V[i], y> for every y and each bounds every other shadow
    from below.  It comes from the signs of the pair products (_reduce_dots
    with signs) or the prefix sums of the walk (_sorted_shadow), in the
    chunks of the call without vertices, whose values it returns bit for
    bit.
    """
    Z = as_set(Z)
    X = np.asarray(X, dtype=float)
    Xs = np.atleast_2d(X)
    if not _pair_path(len(Z), Xs.shape[0] if d is None else d, pair_row_count(Z), vertex_price):
        out = _sorted_shadow(Z.gens, Xs, vertices)
    else:
        out = _reduce_dots(Z._crosses, Xs, signs=vertices)
        out = (4.0 * out[0], 4.0 * out[1]) if vertices else 4.0 * out
    if X.ndim > 1:
        return out
    return (out[0][0], out[1][0]) if vertices else out[0]


def stack_ratios(G):
    """Direction ratios of each zonotope of a stack G (b, n, 3) at its candidates: (values, ok).

    Row i is the ratios invariants reads M from for Z = GeneratorSet(G[i]),
    at Z.candidates with their shadows priced as a vertex pass, bit for bit.
    A stack of any length goes in chunks of members of about
    _CHUNK_BYTES: crosses, determinants, Pi^2 rows and candidates are formed
    for a chunk, and the supports and shadows of its members are summed by
    one stacked _reduce_dots each, which gives every member the values of a
    call of its own.
    A member it cannot take (flat, with a zero cross or Pi^2 row, or whose
    shadows walk zonogons) has ok[i] False and a row of NaN.
    """
    G = np.asarray(G, dtype=float)
    n = G.shape[1]
    values = np.full((len(G), n + n * (n - 1) // 2), np.nan)
    ok = np.zeros(len(G), dtype=bool)
    # a member's Pi^2 rows and the arrays that form them take about 100 bytes a row
    for sl in _chunks(len(G), 100 * pi2_count(n)):
        g = G[sl]
        C = cross_rows(g)
        D = triple_dets(g, C)
        R = pi2_rows(g, D)
        X = np.concatenate([g, C], axis=1)
        norms = np.linalg.norm(X, axis=-1, keepdims=True)
        # a zero cross leaves its member to the per-body path
        X /= np.where(norms > 0.0, norms, 1.0)
        # the rows each member keeps on its own: pair_crosses, then Pi Z's _crosses
        take = ok[sl] = (~is_flat(g) & np.all(_nonzero(C), axis=-1)
                         & np.all(_nonzero(R), axis=-1)
                         & _pair_path(C.shape[1], X.shape[1], R.shape[1], vertices=True))
        if take.any():
            X = X[take]
            den = _reduce_dots(g[take], X) * (8.0 * np.sum(np.abs(D[take]), axis=-1))[:, None]
            if (den <= 0.0).any():
                raise InputError("support must be positive in every requested direction")
            values[sl][take] = 4.0 * _reduce_dots(R[take], X) / den
    return values, ok


def stack_shadows(Zs, X):
    """Shadow areas of each zonotope of a list Zs at its own rows, X (b, d, 3): (values, ok).

    Row i is z_shadow_area(Zs[i], X[i]) bit for bit.  The members share a
    generator count and how their pair rows are made: the crosses of their
    generators, or for Pi of zonotopes of one size those zonotopes'
    pi2_rows.  The rows are formed for all members at once and summed by
    one stacked _reduce_dots.  A member with a zero pair row, or every member
    where shadows of d directions walk zonogons, has ok[i] False and a row
    of NaN.
    """
    if len(Zs) == 1:  # the call of its own, on the rows the zonotope keeps
        return z_shadow_area(Zs[0], X[0])[None], np.ones(1, dtype=bool)
    source = [Z._source for Z in Zs]
    kinds = {(len(Z), pair_row_count(Z), s is None) for Z, s in zip(Zs, source)}
    if len(kinds) > 1:
        raise InputError("stacked zonotopes must share a generator count and pair rows")
    values, ok = np.full(X.shape[:2], np.nan), np.zeros(len(Zs), dtype=bool)
    if Zs and _pair_path(len(Zs[0]), X.shape[1], pair_row_count(Zs[0])):
        # the rows each member keeps on its own: pair_crosses, in its C order
        # (BLAS rounds a product by the layout of its operands), or Pi Z's _crosses
        C = (np.ascontiguousarray(cross_rows(np.array([Z.gens for Z in Zs])))
             if source[0] is None else pi2_rows(*map(np.array, zip(*source))))
        ok = np.all(_nonzero(C), axis=-1)
        if ok.all():
            values = 4.0 * _reduce_dots(C, X)
        elif ok.any():
            values[ok] = 4.0 * _reduce_dots(C[ok], X[ok])
    return values, ok


def _line_units(U):
    """Rows of U times the sign of their first nonzero coordinate.

    The same row for u and -u: one representative per line.
    """
    sign = np.where(U[:, 0] != 0.0, np.sign(U[:, 0]),
                    np.where(U[:, 1] != 0.0, np.sign(U[:, 1]), np.sign(U[:, 2])))
    return U * sign[:, None]


def _sorted_shadow(G, X, vertices=False):
    """Zonogon areas of G projected along each row of X, by angular order.

    With the projected generators v_i flipped into the upper half-plane and
    sorted by angle, det(v_i, v_j) >= 0 for i < j, so the pair sum is
    sum_j det(v_1 + ... + v_{j-1}, v_j): one prefix sum per direction.

    With vertices, also the vertex of Pi Z supporting each row (see
    z_shadow_area), from the same walk: in the frame (e1, e2, u) of the
    line of x the flipped generators in that order are w = p e1 + q e2 + r u,
    and 4 sum_b P_{b-1} x w_b, with P the prefix sums of w, is 4 (A u + B e1
    + C e2): A the area and B, C the prefix sums of (q, r) and (r, p) taken
    as A is of (p, q).  Returns (areas, V) then.
    """
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    out = np.empty(X.shape[0])
    V = np.empty(X.shape) if vertices else None
    # about a dozen float rows of length n live per direction (six more with
    # the vertices, in the same chunks, so that the areas are the same)
    for sl in _chunks(X.shape[0], 96 * G.shape[0]):
        nx = norms[sl]
        dirs = X[sl] / np.where(nx > 0.0, nx, 1.0)[:, None]
        # x and -x share one frame, so their shadows agree to the last bit
        u = _line_units(dirs)
        e1, e2 = _frames(u)
        p, q = e1 @ G.T, e2 @ G.T
        # the seam: q = 0 with p < 0 flips to angle 0, like q < 0
        # (one multiply by +-1 is exact, -0.0 included, and much cheaper
        # than a masked negation)
        sign = np.where((q < 0.0) | ((q == 0.0) & (p < 0.0)), -1.0, 1.0)
        p *= sign
        q *= sign
        # each row's angular order as indices into the flattened rows, one
        # gather per array (np.take_along_axis builds its index per call)
        order = np.argsort(np.arctan2(q, p), axis=1)
        order += np.arange(0, order.size, G.shape[0])[:, None]
        p, q = p.take(order), q.take(order)
        sp, sq = np.cumsum(p, axis=1), np.cumsum(q, axis=1)
        area = np.sum(sp[:, :-1] * q[:, 1:] - sq[:, :-1] * p[:, 1:], axis=1)
        out[sl] = 4.0 * area * nx
        if vertices:
            r = ((u @ G.T) * sign).take(order)
            # sum_{a<b} (q_a r_b - r_a q_b) = sum_b r_b (sq_{b-1} + sq_b - sq_n)
            # with sq_{b-1} = sq_b - q_b, and alike in p: no prefix sum of r
            b, c = (np.einsum("ij,ij->i", r, 2.0 * s - t - s[:, -1:])
                    for s, t in ((sq, q), (sp, p)))
            # u is x/|x| or -x/|x|, and the vertex follows x
            side = 4.0 * np.sign(np.einsum("ij,ij->i", u, dirs))
            V[sl] = side[:, None] * (area[:, None] * u + b[:, None] * e1 - c[:, None] * e2)
    return (out, V) if vertices else out


def second_proj_support(Z, x):
    """Support value of the second projection body, h_{Pi^2 Z}(x).

    The independent oracle of the projection-body pipeline: 64 * sum over
    pairs {(i, j), (k, l)} of generator pairs of |det(x_i x x_j, x_k x x_l, x)|,
    enumerated here one term at a time and not through the index tables of
    pair_crosses or pi2_rows, each term by Binet-Cauchy as
    det(x_i, x_j, x_l) <x_k, x> - det(x_i, x_j, x_k) <x_l, x>.
    """
    g = as_set(Z).gens
    if is_flat(g):
        raise FlatBodyError("flat zonotope has no second projection body")
    pairs = itertools.combinations(itertools.combinations(range(len(g)), 2), 2)
    (i, j), (k, l) = (np.array(side).T for side in zip(*pairs))
    gij, gx = np.cross(g[i], g[j]), g @ as_vec(x, 3)
    terms = (np.einsum("ij,ij->i", gij, g[l]) * gx[k]
             - np.einsum("ij,ij->i", gij, g[k]) * gx[l])
    return 64.0 * float(np.sum(np.abs(terms)))


def merge_parallel(gens, counts=None):
    """Combine (anti)parallel generators into single summed segments.

    Generators whose sign-canonical unit vectors lie within tol = 1e-12 of
    each other (directly or through a chain of such neighbours) become one
    segment: the unit vector of the first member times the summed lengths,
    in order of first appearance.  With counts, gens is a ragged stack, the
    blocks of those sizes one after the other, each merged on its own:
    returns (merged, merged counts), each block's rows those of a call of
    its own bit for bit, from one sort by (block, key), one close-pair test
    and one label pass.
    """
    tol = 1e-12
    g = np.asarray(gens, dtype=float)
    # np.linalg.norm(g, axis=1) to the bit, without its dispatch
    norms = np.sqrt(np.add.reduce(g * g, 1))
    keep = norms > 0.0
    g, norms = g[keep], norms[keep]
    units = _line_units(g / norms[:, None])
    # units within tol of each other have keys within tol along any unit axis:
    # sort by one key and test only the pairs whose keys are that close (2 tol
    # leaves room for the rounding of the keys)
    key, reach = units @ _MERGE_AXIS, 2.0 * tol
    if counts is not None:
        block = np.repeat(np.arange(len(counts)), counts)[keep]
        # complex numbers sort by real part, then imaginary: by block, then key
        key, reach = block + 1j * key, 1j * reach
    order = np.argsort(key, kind="stable")
    ks = key[order]
    count = np.searchsorted(ks, ks + reach, side="right") - np.arange(ks.size) - 1
    a = np.repeat(np.arange(ks.size), count)
    b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(count) - count, count)
    i, j = order[a], order[b]
    gap = units[i] - units[j]
    close = np.sqrt(np.add.reduce(gap * gap, 1)) <= tol
    i, j = i[close], j[close]
    # every generator takes the smallest index of its group
    label = np.arange(len(units))
    while True:
        low = np.minimum(label[i], label[j])
        new = label.copy()
        np.minimum.at(new, i, low)
        np.minimum.at(new, j, low)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    # the labels are the indices that label themselves (label[label] = label),
    # in order: np.unique(label) and its inverse without the sort
    root = label == np.arange(len(label))
    group = (np.cumsum(root) - 1)[label]
    merged = units[root] * np.bincount(group, weights=norms)[:, None]
    if counts is None:
        return merged
    return merged, np.bincount(block[root], minlength=len(counts))


def pi_bodies(polys):
    """Pi P of each polytope, as P.pi_body gives it: one merge_parallel a chunk.

    The facet generators (P.projection_generators()) of a chunk of about
    _CHUNK_BYTES go through one ragged merge_parallel; each GeneratorSet
    holds its block's rows, those of a merge of its own bit for bit.
    """
    out = []
    # a generator's rows, keys, order and labels: about 200 bytes
    for sl in _chunks(len(polys), 200 * max((len(P.facets) for P in polys), default=0)):
        gens = [P.projection_generators() for P in polys[sl]]
        if len(gens) == 1:
            merged = merge_parallel(gens[0])
            counts = [len(merged)]
        else:
            merged, counts = merge_parallel(np.concatenate(gens), [len(g) for g in gens])
        for start, count in zip(itertools.accumulate(counts, initial=0), counts):
            # merged rows are nonzero and finite: GeneratorSet's checks hold
            Z = GeneratorSet.__new__(GeneratorSet)
            Z.gens = merged[start:start + count]
            out.append(Z)
    return out


def cache_pi_bodies(polys):
    """Fill each polytope's cached pi_body (Polytope.pi_body) from one pi_bodies call."""
    polys = [P for P in polys if "pi_body" not in P.__dict__]
    for P, Z in zip(polys, pi_bodies(polys)):
        P.__dict__["pi_body"] = Z


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
    # generators shorter than 1e-15 of the longest are below its rounding
    g = g[norms > 1e-15 * norms.max(initial=0.0)]
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


def zonotope_vertices(Z):
    """The vertices of Z, sign sums +-x_1 +- ... +- x_n in their binary order.

    Summed one generator at a time; each partial sum keeps only the vertices
    of its hull in its affine span: at most k^2 - k + 2 for k generators.
    The hulls are scipy's, in 1 to 3 dimensions, so geom.convex_hull cannot
    take them.
    """
    # imported here, as in geom.convex_hull: scipy.spatial takes ~0.35 s to load
    from scipy.spatial import ConvexHull
    pts = np.zeros((1, 3))
    for x in as_set(Z).gens:
        pts = (pts[:, None, :] + np.array([-x, x])).reshape(-1, 3)
        c = pts - pts.mean(axis=0)
        _, sv, vt = np.linalg.svd(c, full_matrices=False)
        y = c @ vt[sv > 1e-12 * sv[0]].T
        pts = pts[np.unique(ConvexHull(y).vertices if y.shape[1] > 1
                            else [np.argmin(y), np.argmax(y)])]
    return pts
