"""Steiner and Schwartz symmetrization of 3-D polytopes.

Steiner symmetrization recentres every chord parallel to the direction nu.
The half-chord-length function w over the shadow is concave and piecewise
linear; its linearity cells are the overlay of the roof and floor facet
subdivisions, so w is pinned down by its values at the projected vertices
TOGETHER WITH the pairwise crossings of projected edges.  Sampling chords at
exactly those points and taking the hull reproduces the symmetral exactly
(vertex projections alone are not enough: a tetrahedron with its top edge
crossing its bottom edge in projection has all its volume at a crossing).

Schwartz symmetrization replaces every slice by a disc of equal area and is
computed from the exact piecewise-quadratic slice-area function, sampled
into a revolution profile.  The symmetral's axis ratio is q(P, x), which
functionals.q_direction evaluates exactly without building it.
"""

import numpy as np

from .errors import FlatBodyError, InputError, SymmetryError
from .geom import (_chunks, _ragged_chunks, _starts, convex_hull, convex_hulls, cross, plane_basis,
                   slice_quadratics, stack_chords, unitize, unitize_rows)
from .revolution import RevolutionBody
from .zonotope import cache_pi_bodies, stack_shadows, z_shadow_area

DUPLICATE_TOL = 1e-10


class ChordProfile:
    """Chord data of a polytope along a direction: base points and (f, g) pairs."""

    def __init__(self, base_points, f_vals, g_vals):
        self.base_points = np.asarray(base_points, dtype=float)
        self.f = np.asarray(f_vals, dtype=float)
        self.g = np.asarray(g_vals, dtype=float)
        if np.any(self.g < self.f - 1e-12):
            raise InputError("chord profile has g < f")
        self.w = 0.5 * (self.g - self.f)
        self.u = 0.5 * (self.g + self.f)


def _roof_floor_edges(tris, signs, nverts):
    """Edges (i, j), i < j, whose projections are roof resp. floor breaklines.

    tris are the facets over nverts vertices, signs their normals'
    components along nu.  An edge between two facets with positive normal
    component is a roof breakline, between two negative ones a floor
    breakline; edges touching a nu-parallel facet are classified by the
    other side.  Roof breaklines cross each other only at projected
    vertices, so only roof-floor pairs can produce new breakpoints of the
    half-chord function.  The edges come in order of (i, j), so those of a
    stack of bodies, whose vertex indices follow one another, come body by
    body.
    """
    e_all = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    e_all.sort(axis=1)
    # e_all stacks the three edge lists block-wise, so the facet signs tile
    sgn = np.tile(signs, 3)
    # rows (i, j), i < j, as the keys i V + j: np.unique(e_all, axis=0) without
    # sorting the rows as records
    keys, inv = np.unique(e_all[:, 0] * nverts + e_all[:, 1], return_inverse=True)
    edges = np.column_stack([keys // nverts, keys % nverts])
    up = np.zeros(edges.shape[0], dtype=bool)
    down = np.zeros(edges.shape[0], dtype=bool)
    tol = 1e-12
    np.logical_or.at(up, inv, sgn > tol)
    np.logical_or.at(down, inv, sgn < -tol)
    roof = edges[up & ~down]
    floor = edges[down & ~up]
    return roof, floor


def _projected_edge_crossings(verts2, roof, floor, body, scale):
    """2-D transversal intersections of each body's projected roof and floor edges.

    verts2 are the projected vertices of a stack of bodies, body the body
    of each, scale each body's largest projected coordinate, and roof and
    floor the bodies' edges in turn (_roof_floor_edges).  Returns the
    points and the body of each: body by body, roof edge by roof edge, as
    one pass per body finds them.  Each roof edge goes against every floor
    edge of its body, in chunks of about _CHUNK_BYTES of (roof, floor)
    pairs, each pair's arithmetic that of a body of its own.
    """
    rb = body[roof[:, 0]]
    # the floor edges of each roof edge's body: partners from first on
    nfloor = np.bincount(body[floor[:, 0]], minlength=len(scale))
    partners, first = nfloor[rb], (np.cumsum(nfloor) - nfloor)[rb]
    a1_all, a2_all = verts2[roof[:, 0]], verts2[floor[:, 0]]
    d1_all, d2_all = verts2[roof[:, 1]] - a1_all, verts2[floor[:, 1]] - a2_all
    limit = 1e-12 * scale * scale
    points, bodies = [np.empty((0, 2))], [np.empty(0, dtype=int)]
    # pair indices, gathered rows, rhs, det, t, s and their masks: ~150 bytes a pair
    for sl in _ragged_chunks(partners, 150):
        count = partners[sl]
        r = np.repeat(np.arange(sl.start, sl.stop), count)
        f = np.repeat(first[sl] - np.cumsum(count) + count, count) + np.arange(len(r))
        a1, d1, d2 = a1_all[r], d1_all[r], d2_all[f]
        rhs = a2_all[f] - a1
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        ok = np.abs(det) > limit[rb[r]]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rhs[:, 0] * d2[:, 1] - rhs[:, 1] * d2[:, 0]) / det
            s = (rhs[:, 0] * d1[:, 1] - rhs[:, 1] * d1[:, 0]) / det
        ok &= (t > 1e-12) & (t < 1.0 - 1e-12) & (s > 1e-12) & (s < 1.0 - 1e-12)
        points.append(a1[ok] + t[ok][:, None] * d1[ok])
        bodies.append(rb[r[ok]])
    return np.concatenate(points), np.concatenate(bodies)


def _plane_points(bodies, nus):
    """Each body's projected vertices, then its roof-floor crossings, along its unit row of nus.

    Returns (points, body, e1, e2): the points in the coordinates of the
    bodies' planes (e1, e2) = plane_basis(nus), body by body, and the body
    of each.  The vertices' products with e1 and e2 and the facet normals'
    with nu are one BLAS call per body, as the body's own call makes them;
    every other stage takes the stack at once.
    """
    nv = [len(P.vertices) for P in bodies]
    nf = [len(P.facets) for P in bodies]
    e1, e2 = plane_basis(nus)
    verts2, signs = np.empty((sum(nv), 2)), np.empty(sum(nf))
    for P, a, b, x, u, w in zip(bodies, _starts(nv), _starts(nf), nus, e1, e2):
        verts2[a:a + len(P.vertices), 0] = P.vertices @ u
        verts2[a:a + len(P.vertices), 1] = P.vertices @ w
        signs[b:b + len(P.facets)] = P.facet_normals @ x
    body = np.repeat(np.arange(len(bodies)), nv)
    tris = np.concatenate([P.facets for P in bodies]) + np.repeat(_starts(nv), nf)[:, None]
    roof, floor = _roof_floor_edges(tris, signs, len(verts2))
    scale = np.maximum.reduceat(np.abs(verts2).max(axis=1), _starts(nv))
    scale[scale == 0.0] = 1.0
    cross2, cross_body = _projected_edge_crossings(verts2, roof, floor, body, scale)
    # body by body, each body's vertices before its crossings
    body = np.concatenate([body, cross_body])
    order = np.argsort(body, kind="stable")
    return np.concatenate([verts2, cross2])[order], body[order], e1, e2


def _profiles(bodies, nus):
    """Chord profiles of each body along its unit row of nus, in one pass: (bases, f, g, counts).

    Each body's chord profile (chord_profile) holds its block of the rows
    of bases, f and g, counts[i] rows long, bit for bit.  Duplicate plane
    points are merged body by body, the chords clipped by one
    geom.stack_chords call.  The first body with fewer than 3 chords
    raises FlatBodyError.
    """
    pts2, body, e1, e2 = _plane_points(bodies, nus)
    scale = np.array([np.max(np.abs(P.vertices)) for P in bodies])
    scale[scale == 0.0] = 1.0
    # merge duplicate base points
    key = np.round(pts2 / (DUPLICATE_TOL * scale)[body, None]).astype(np.int64)
    # the first of each run of equal keys of a body in a stable sort by
    # both: the first occurrence of each, as np.unique(key, axis=0,
    # return_index=True) finds it on the body's own points
    order = np.lexsort((key[:, 1], key[:, 0], body))
    key, sorted_body = key[order], body[order]
    first = np.concatenate([[True], np.any(key[1:] != key[:-1], axis=1)
                            | (sorted_body[1:] != sorted_body[:-1])])
    keep = np.sort(order[first])
    pts2, body = pts2[keep], body[keep]
    bases = pts2[:, 0, None] * e1[body] + pts2[:, 1, None] * e2[body]
    lo, hi = stack_chords(bodies, bases, np.bincount(body, minlength=len(bodies)), nus)
    ok = ~np.isnan(lo)
    counts = np.bincount(body[ok], minlength=len(bodies))
    if np.any(counts < 3):
        raise FlatBodyError("chord profile is degenerate")
    return bases[ok], lo[ok], hi[ok], counts


def chord_profile(P, nu):
    """Chords of P along nu at every projected vertex and roof-floor crossing.

    The stack of one of _profiles.
    """
    bases, f, g, _ = _profiles([P], unitize(nu)[None])
    return ChordProfile(bases, f, g)


def steiner(P, nu):
    """Steiner symmetral of P along nu: exact, volume preserving.

    Hull of the recentred chords {base +- w * nu} over the chord profile
    (steiner_points).
    """
    return convex_hull(steiner_points(P, nu), symmetric=P.symmetric)


def steiner_points(P, nu):
    """The points whose hull is the Steiner symmetral of P along nu (steiner).

    The stack of one of _point_sets.
    """
    return _point_sets([P], unitize(nu)[None])[0]


def _point_sets(bodies, nus):
    """steiner_points of each body along its unit row of nus, from one _profiles call.

    Each body's profile takes its nu unitized once more, as steiner_points'
    chord_profile call does.  The points of a body are base + w nu, then
    base - w nu, over its profile; a symmetric body's also their negatives,
    as grazing chords can drop one of a +-pair to round-off, and the
    negatives restore the exact central symmetry of the sample set.
    """
    bases, f, g, counts = _profiles(bodies, unitize_rows(nus))
    step = (0.5 * (g - f))[:, None] * np.repeat(nus, counts, axis=0)
    plus, minus = bases + step, bases - step
    out = []
    for P, a, n in zip(bodies, _starts(counts), counts):
        pts = np.concatenate([plus[a:a + n], minus[a:a + n]])
        out.append(np.concatenate([pts, -pts]) if P.symmetric else pts)
    return out


def schwartz(P, nu):
    """Schwartz symmetral: revolution body with equal-area circular slices.

    The radial profile sqrt(slice_area / pi) is sampled at the vertex-height
    breakpoints plus 16, 32, ... uniform samples per piece, until it keeps the
    volume of P to 0.1%, using the exact quadratic slice-area coefficients;
    the result is symmetrized to machine evenness.  Requires a symmetric input.
    """
    if not P.symmetric:
        raise SymmetryError("Schwartz symmetrization needs a symmetric body")
    nu = unitize(nu)
    a = float(P.support(nu))
    H, C = slice_quadratics(P, nu)
    wide = np.diff(H) > 0.0
    C = C[wide]
    samples_per_piece = 16
    while True:
        t = np.linspace(0.0, 1.0, samples_per_piece + 1)[1:]
        s_nodes = np.concatenate([H[:1], (H[:-1, None] + np.diff(H)[:, None] * t)[wide].ravel()])
        areas = np.concatenate([C[:1, 0], (C[:, :1] + t * (C[:, 1:2] + t * C[:, 2:])).ravel()])
        f_nodes = np.sqrt(np.maximum(areas, 0.0) / np.pi)
        # drop sliver nodes (vertex-height clusters near the poles); they carry
        # no volume but amplify slope noise
        keep = np.concatenate([[True], np.diff(s_nodes) > 1e-7 * 2.0 * a])
        keep[0] = keep[-1] = True
        s_nodes, f_nodes = s_nodes[keep], f_nodes[keep]
        # ride the least concave majorant to clip quadrature round-off, then
        # enforce exact evenness by mirroring the averaged halves
        f_nodes = _concave_majorant(s_nodes, f_nodes)
        s_sym = 0.5 * (s_nodes - s_nodes[::-1])
        f_sym = 0.5 * (f_nodes + f_nodes[::-1])
        s_sym[0], s_sym[-1] = -a, a
        R = RevolutionBody(3, a, s_sym, f_sym)
        # each doubling about halves the volume lost; a cube with its top
        # facet tilted by 1e-6 or less needs the most seen, 1024 per piece
        if abs(R.volume - P.volume) <= 1e-3 * P.volume:
            return R
        samples_per_piece *= 2


def _concave_majorant(s, f):
    """Least concave function through the node cloud (upper hull, interpolated).

    Slice profiles are concave up to floating-point noise; this lifts nodes
    by at most that noise and leaves genuinely concave data untouched.
    """
    hull = [0]
    for k in range(1, s.size):
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            # drop j when it lies on or below the chord (i, k)
            if (f[j] - f[i]) * (s[k] - s[i]) <= (f[k] - f[i]) * (s[j] - s[i]):
                hull.pop()
            else:
                break
        hull.append(k)
    return np.interp(s, s[hull], f[hull])


def steiner_projection_monotonicity(P, nu, h_second):
    """Shadow areas of Pi P and Pi(S_nu P) on a 2-plane H containing nu.

    H is spanned by nu and the second direction; the symmetrized shadow never
    exceeds the original (after <= before + 1e-9 on every valid input).
    The stack of one of steiner_shadows.
    """
    (before,), (after,) = steiner_shadows([(P, nu, h_second)])
    return float(before), float(after)


def steiner_shadows(cases):
    """steiner_projection_monotonicity of each (P, nu, h_second) case: (before, after) arrays.

    The cases' sample sets come from one _point_sets call, the symmetrals'
    hulls from one stack per symmetry flag (geom.convex_hulls), Pi of the
    bodies and of their symmetrals from one zonotope.cache_pi_bodies, and
    the shadows from one zonotope.stack_shadows per generator count, each
    as its own call gives it.  The error raised is that of the first case
    a call of its own would raise for.
    """
    bodies, nus, normals = [], [], []
    for P, nu, h_second in cases:
        try:
            nu = unitize(nu)
            h2 = np.asarray(h_second, dtype=float)
            perp = h2 - np.dot(h2, nu) * nu
            if np.linalg.norm(perp) < 1e-9:
                raise InputError("second direction must be independent of nu")
        except InputError:
            if bodies:  # an earlier case's error comes first
                _point_sets(bodies, unitize_rows(np.array(nus)))
            raise
        bodies.append(P)
        nus.append(nu)
        # the shadow on H = span(nu, e2) is the shadow along the normal nu x e2
        normals.append(cross(nu, unitize(perp)))
    if not cases:
        return np.empty(0), np.empty(0)
    # steiner_points unitizes the nu it is given once more
    points = _point_sets(bodies, unitize_rows(np.array(nus)))
    symmetrals = [None] * len(cases)
    for flag in (False, True):
        idx = [i for i, P in enumerate(bodies) if P.symmetric == flag]
        for i, S in zip(idx, convex_hulls([points[i] for i in idx], symmetric=flag)):
            symmetrals[i] = S
    cache_pi_bodies(bodies + symmetrals)
    normals = np.array(normals)
    return (_shadows([P.pi_body for P in bodies], normals),
            _shadows([S.pi_body for S in symmetrals], normals))


def _shadows(Zs, X):
    """z_shadow_area(Zs[i], X[i]) of each zonotope, bit for bit, by stack_shadows.

    The zonotopes go in stacks of one generator count, in chunks of about
    _CHUNK_BYTES; a member a stack takes none of reads its own call.
    """
    out = np.empty(len(Zs))
    stacks = {}
    for i, Z in enumerate(Zs):
        stacks.setdefault(len(Z), []).append(i)
    for n, members in stacks.items():
        members = np.array(members)
        # a member's pair rows and their products: about 48 bytes a pair
        for sl in _chunks(len(members), 24 * n * (n - 1)):
            idx = members[sl]
            values, ok = stack_shadows([Zs[i] for i in idx], X[idx, None])
            out[idx] = values[:, 0]
            for i in idx[~ok]:
                out[i] = z_shadow_area(Zs[i], X[i])
    return out


def roundness(P):
    """Circumradius / inradius about the centroid; 1 for a ball."""
    centroid = P.vertices.mean(axis=0)
    v = P.vertices - centroid
    circum = float(np.max(np.linalg.norm(v, axis=1)))
    # inradius: min distance from centroid to facet planes
    d = P.facet_offsets - P.facet_normals @ centroid
    inr = float(np.min(d))
    if inr <= 0.0:
        raise FlatBodyError("centroid is not interior")
    return circum / inr


def steiner_rounding_run(P, steps, seed):
    """Iterated random-direction Steiner steps with a roundness trace.

    Exactness is per step; to keep long runs tractable the vertex set is
    decimated (farthest-point subset) whenever it exceeds 600 vertices,
    which perturbs the body by far less than the roundness trend observed.
    """
    rng = np.random.default_rng(seed)
    trace = [roundness(P)]
    body = P
    for _ in range(steps):
        nu = unitize(rng.standard_normal(3))
        body = steiner(body, nu)
        if body.vertices.shape[0] > 600:
            body = _decimate(body, 600)
        trace.append(roundness(body))
    return body, np.array(trace)


def _decimate(P, target):
    """Farthest-point vertex subset hull (deterministic)."""
    v = P.vertices
    chosen = [int(np.argmax(np.linalg.norm(v - v.mean(axis=0), axis=1)))]
    d = np.linalg.norm(v - v[chosen[0]], axis=1)
    for _ in range(target - 1):
        nxt = int(np.argmax(d))
        chosen.append(nxt)
        d = np.minimum(d, np.linalg.norm(v - v[nxt], axis=1))
    return convex_hull(v[chosen], symmetric=False)
