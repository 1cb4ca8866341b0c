"""Reference computations the benchmark checks pettylab's outputs against.

Everything here uses numpy and scipy only; nothing imports pettylab.  The
formulas are the textbook ones, evaluated by routes that differ from the
library's:

* shadows of zonotopes are zonogons, whose area is taken by walking the
  boundary in angular order and applying the shoelace rule;
* the projection body of a polytope is the zonotope generated by
  (area/2) * normal over the facets of a scipy hull of the vertices;
* zonotope volume is built up one generator at a time from
  V(Z + [-x, x]) = V(Z) + 2 |x| V_2(Z | x^perp);
* the slice functional q integrates sqrt(section area) by Gauss-Legendre
  quadrature on each piece between vertex heights, with every section
  computed directly by cutting the hull's edges with the plane.

For a body K and a unit direction x,

    ratio(K, x) = V_2(Pi K | x^perp) / (h_K(x) V(K))
    q(K, x)     = 4 (int sqrt(V_2(K cap {<y, x> = s})) ds)^2 / (h_K(x) V(K))

and for four vectors and a direction, t/s is the ratio of the two sums over
the 24 orderings (a, b, c, w) of |det(a x b, c x w, x)| and
|det(a, b, c)| |<w, x>|.
"""

import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull

BALL_VALUE = 3.0 * math.pi ** 2 / 4.0


def unit(x):
    x = np.asarray(x, dtype=float)
    return x / np.linalg.norm(x)


def plane_basis(x):
    """Two orthonormal vectors spanning x^perp."""
    x = unit(x)
    a = np.eye(3)[int(np.argmin(np.abs(x)))]
    e1 = unit(a - np.dot(a, x) * x)
    return e1, np.cross(x, e1)


# --- zonogons and zonotopes -----------------------------------------------------

def zonogon_area(gens2d):
    """Area of the zonogon sum of [-g, g] over the rows of an (n, 2) array.

    The boundary runs through the edges 2g in order of angle, then through
    the same edges negated; the shoelace rule gives the area.
    """
    g = np.asarray(gens2d, dtype=float).reshape(-1, 2)
    norms = np.hypot(g[:, 0], g[:, 1])
    g = g[norms > 0.0]
    if g.shape[0] < 2:
        return 0.0
    # fold every generator into the half-plane of angles [0, pi)
    upper = (g[:, 1] > 0.0) | ((g[:, 1] == 0.0) & (g[:, 0] > 0.0))
    g = np.where(upper[:, None], g, -g)
    g = g[np.argsort(np.arctan2(g[:, 1], g[:, 0]), kind="stable")]
    edges = np.vstack([2.0 * g, -2.0 * g])
    pts = np.cumsum(edges, axis=0) - g.sum(axis=0)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - y * np.roll(x, -1))))


def shadow_area(gens, x):
    """V_2(Z | x^perp) for the zonotope with the given 3-D generators."""
    e1, e2 = plane_basis(x)
    g = np.asarray(gens, dtype=float)
    return zonogon_area(np.column_stack([g @ e1, g @ e2]))


def zonotope_volume(gens):
    """Volume of sum [-g, g], one generator at a time through shadows."""
    g = np.asarray(gens, dtype=float)
    total = 0.0
    for k in range(2, g.shape[0]):
        total += 2.0 * np.linalg.norm(g[k]) * shadow_area(g[:k], g[k])
    return total


def zonotope_projection_generators(gens):
    """Generators 4 (x_i x x_j), i < j, of the projection body of a zonotope."""
    g = np.asarray(gens, dtype=float)
    i, j = np.triu_indices(g.shape[0], k=1)
    return 4.0 * np.cross(g[i], g[j])


# --- polytopes --------------------------------------------------------------------

class Hull:
    """A convex polytope given by its vertex cloud, through scipy's Qhull."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        hull = ConvexHull(pts)
        self.vertices = pts[hull.vertices]
        self.volume = float(hull.volume)
        tri = pts[hull.simplices]
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        self.areas = 0.5 * np.linalg.norm(cross, axis=1)
        self.normals = hull.equations[:, :3]
        self.simplices = hull.simplices
        self.points = pts
        e = np.vstack([hull.simplices[:, [0, 1]], hull.simplices[:, [1, 2]],
                       hull.simplices[:, [2, 0]]])
        self.edges = np.unique(np.sort(e, axis=1), axis=0)

    def support(self, x):
        return float(np.max(self.points @ np.asarray(x, dtype=float)))

    def facet_normals(self):
        """Unit outward normals of the non-degenerate triangles."""
        return self.normals[self.areas > 0.0]

    def projection_generators(self):
        """Generators (area/2) * normal of the projection body Pi K."""
        return 0.5 * self.areas[:, None] * self.normals

    def section_area(self, x, s):
        """Area of the section of the hull by the plane <y, x> = s."""
        x = unit(x)
        h = self.points @ x
        a, b = self.edges[:, 0], self.edges[:, 1]
        ha, hb = h[a], h[b]
        lo, hi = np.minimum(ha, hb), np.maximum(ha, hb)
        cut = (lo <= s) & (s <= hi) & (hi > lo)
        if np.count_nonzero(cut) < 3:
            return 0.0
        t = (s - ha[cut]) / (hb[cut] - ha[cut])
        p = self.points[a[cut]] + t[:, None] * (self.points[b[cut]] - self.points[a[cut]])
        e1, e2 = plane_basis(x)
        q = np.column_stack([p @ e1, p @ e2])
        c = q.mean(axis=0)
        ang = np.arctan2(q[:, 1] - c[1], q[:, 0] - c[0])
        q = q[np.argsort(ang)]
        return 0.5 * abs(float(np.sum(q[:, 0] * np.roll(q[:, 1], -1)
                                      - q[:, 1] * np.roll(q[:, 0], -1))))


def ratio_polytope(hull, x):
    """ratio(K, x) for a symmetric polytope from its own hull."""
    x = unit(x)
    return shadow_area(hull.projection_generators(), x) / (hull.support(x) * hull.volume)


def ratio_zonotope(gens, x, volume=None):
    """ratio(Z, x) for a zonotope from its generators."""
    x = unit(x)
    g = np.asarray(gens, dtype=float)
    vol = zonotope_volume(g) if volume is None else volume
    h = float(np.sum(np.abs(g @ x)))
    return shadow_area(zonotope_projection_generators(g), x) / (h * vol)


# --- the slice functional -----------------------------------------------------------

def _gauss_pieces(n):
    """Gauss-Legendre nodes on [0, 1] pushed through t -> 3t^2 - 2t^3.

    The map has zero slope at both ends, which turns the square-root
    behaviour of sqrt(area) at a piece end into a smooth integrand.
    """
    t, w = np.polynomial.legendre.leggauss(n)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    return 3.0 * t * t - 2.0 * t ** 3, w * 6.0 * t * (1.0 - t)


def slice_integral(hull, x, nodes=16):
    """int sqrt(section area) ds over the extent of the hull along x.

    Returns (value, error): value uses 2*nodes points per piece between
    consecutive distinct vertex heights, and error is its difference from
    the nodes-point rule, which bounds the error of the coarser rule and so,
    by a wide margin, that of the value returned.
    """
    x = unit(x)
    h = np.sort(hull.vertices @ x)
    span = h[-1] - h[0]
    breaks = h[np.concatenate([[True], np.diff(h) > 1e-12 * span])]
    coarse_fine = []
    for n in (nodes, 2 * nodes):
        u, w = _gauss_pieces(n)
        total = 0.0
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            s = lo + (hi - lo) * u
            vals = np.sqrt([hull.section_area(x, si) for si in s])
            total += (hi - lo) * float(np.dot(w, vals))
        coarse_fine.append(total)
    return coarse_fine[1], abs(coarse_fine[1] - coarse_fine[0])


def q_polytope(hull, x, nodes=16):
    """q(K, x) and a bound on the error of this evaluation.

    With I the slice integral and dI its quadrature error, q = 4 I^2 / (hV)
    moves by at most (8 I dI + 4 dI^2) / (hV); the bound adds the rounding
    of the section areas, 1e-13 of q.
    """
    x = unit(x)
    integral, err = slice_integral(hull, x, nodes)
    h = max(hull.support(x), hull.support(-x))
    q = 4.0 * integral * integral / (h * hull.volume)
    bound = (8.0 * integral * err + 4.0 * err * err) / (h * hull.volume) + 1e-13 * q
    return q, bound


# --- bodies of revolution ------------------------------------------------------------

def revolution_volume_and_axis_ratio(s, f):
    """Volume and axis ratio of the 3-D body of revolution of a profile.

    The profile f is piecewise linear on the nodes s over [-a, a];
    V = pi int f^2 and h_{Pi^2}(axis) = 4 pi (int f)^2, so the axis ratio
    is 4 pi (int f)^2 / (a V).
    """
    s = np.asarray(s, dtype=float)
    f = np.asarray(f, dtype=float)
    ds = np.diff(s)
    f0, f1 = f[:-1], f[1:]
    int_f = float(np.sum(0.5 * ds * (f0 + f1)))
    int_f2 = float(np.sum(ds * (f0 * f0 + f0 * f1 + f1 * f1) / 3.0))
    volume = math.pi * int_f2
    a = 0.5 * (s[-1] - s[0])
    return volume, 4.0 * math.pi * int_f * int_f / (a * volume)


# --- the tuple functional -------------------------------------------------------------

_ORDERINGS = list(itertools.permutations(range(4)))


def ts_ratio(vectors, x):
    """t/s for four 3-vectors and a direction x."""
    v = np.asarray(vectors, dtype=float)
    x = np.asarray(x, dtype=float)
    s_total = t_total = 0.0
    for i, j, k, l in _ORDERINGS:
        a, b, c, w = v[i], v[j], v[k], v[l]
        s_total += abs(np.linalg.det(np.array([a, b, c]))) * abs(float(np.dot(w, x)))
        t_total += abs(np.linalg.det(np.array([np.cross(a, b), np.cross(c, w), x])))
    return t_total / s_total
