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
from .geom import _chunks, chords, convex_hull, cross, plane_basis, slice_quadratics, unitize
from .revolution import RevolutionBody
from .zonotope import z_shadow_area

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


def _roof_floor_edges(P, nu):
    """Edge index sets whose projections are roof resp. floor breaklines.

    An edge between two facets with positive normal component is a roof
    breakline, between two negative ones a floor breakline; edges touching a
    nu-parallel facet are classified by the other side.  Roof breaklines
    cross each other only at projected vertices, so only roof-floor pairs
    can produce new breakpoints of the half-chord function.
    """
    t = P.facets
    e_all = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    e_all.sort(axis=1)
    facet_sign = P.facet_normals @ nu
    # e_all stacks the three edge lists block-wise, so the facet signs tile
    sgn = np.tile(facet_sign, 3)
    edges, inv = np.unique(e_all, axis=0, return_inverse=True)
    up = np.zeros(edges.shape[0], dtype=bool)
    down = np.zeros(edges.shape[0], dtype=bool)
    tol = 1e-12
    np.logical_or.at(up, inv, sgn > tol)
    np.logical_or.at(down, inv, sgn < -tol)
    roof = edges[up & ~down]
    floor = edges[down & ~up]
    return roof, floor


def _projected_edge_crossings(P, nu, e1, e2):
    """2-D transversal intersections of projected roof and floor edges.

    Roof edges go against all floor edges in chunks of about _CHUNK_BYTES of
    (roof, floor) arrays, in order, so the points are those of one pass.
    """
    verts2 = np.column_stack([P.vertices @ e1, P.vertices @ e2])
    roof, floor = _roof_floor_edges(P, nu)
    if roof.shape[0] == 0 or floor.shape[0] == 0:
        return np.empty((0, 2))
    a1_all = verts2[roof[:, 0]]
    d1_all = verts2[roof[:, 1]] - verts2[roof[:, 0]]
    a2 = verts2[floor[:, 0]][None, :, :]
    d2 = (verts2[floor[:, 1]] - verts2[floor[:, 0]])[None, :, :]
    scale = float(np.max(np.abs(verts2))) or 1.0
    points = []
    # rhs, det, t, s and their masks: ~100 bytes a pair
    for sl in _chunks(roof.shape[0], 100 * floor.shape[0]):
        a1, d1 = a1_all[sl][:, None, :], d1_all[sl][:, None, :]
        rhs = a2 - a1
        det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
        ok = np.abs(det) > 1e-12 * scale * scale
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rhs[..., 0] * d2[..., 1] - rhs[..., 1] * d2[..., 0]) / det
            s = (rhs[..., 0] * d1[..., 1] - rhs[..., 1] * d1[..., 0]) / det
        ok &= (t > 1e-12) & (t < 1.0 - 1e-12) & (s > 1e-12) & (s < 1.0 - 1e-12)
        ri, _ = np.nonzero(ok)
        points.append(a1[:, 0, :][ri] + t[ok][:, None] * d1[:, 0, :][ri])
    return np.concatenate(points)


def chord_profile(P, nu):
    """Chords of P along nu at every projected vertex and roof-floor crossing."""
    nu = unitize(nu)
    e1, e2 = plane_basis(nu)
    verts2 = np.column_stack([P.vertices @ e1, P.vertices @ e2])
    pts2 = np.vstack([verts2, _projected_edge_crossings(P, nu, e1, e2)])
    scale = float(np.max(np.abs(P.vertices))) or 1.0
    # merge duplicate base points
    key = np.round(pts2 / (DUPLICATE_TOL * scale)).astype(np.int64)
    _, keep = np.unique(key, axis=0, return_index=True)
    pts2 = pts2[np.sort(keep)]
    bases = pts2[:, 0, None] * e1[None, :] + pts2[:, 1, None] * e2[None, :]
    lo, hi = chords(P, bases, nu)
    ok = ~np.isnan(lo)
    if int(ok.sum()) < 3:
        raise FlatBodyError("chord profile is degenerate")
    return ChordProfile(bases[ok], lo[ok], hi[ok])


def steiner(P, nu):
    """Steiner symmetral of P along nu: exact, volume preserving.

    Hull of the recentred chords {base +- w * nu} over the chord profile.
    """
    nu = unitize(nu)
    prof = chord_profile(P, nu)
    pts = np.vstack([prof.base_points + prof.w[:, None] * nu[None, :],
                     prof.base_points - prof.w[:, None] * nu[None, :]])
    if P.symmetric:
        # grazing chords can drop one of a +-pair to round-off; restore the
        # exact central symmetry of the sample set
        pts = np.vstack([pts, -pts])
    return convex_hull(pts, symmetric=P.symmetric)


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
    """
    nu = unitize(nu)
    h2 = np.asarray(h_second, dtype=float)
    perp = h2 - np.dot(h2, nu) * nu
    if np.linalg.norm(perp) < 1e-9:
        raise InputError("second direction must be independent of nu")
    # the shadow on H = span(nu, e2) is the shadow along the normal nu x e2
    w = cross(nu, unitize(perp))
    before = z_shadow_area(P.pi_body, w)
    after = z_shadow_area(steiner(P, nu).pi_body, w)
    return float(before), float(after)


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
