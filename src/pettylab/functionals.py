"""Affine invariants and tuple functionals of the projection-body calculus.

The central quantity is the direction ratio

    ratio(K, x) = h_{Pi^2 K}(x) / (h_K(x) * V(K))        (d = 3)

whose extrema over the sphere are the invariants M(K) and m(K).  P(K) =
V(Pi K)/V(K)^2 = V(Pi^2 K, K, K)/V(K)^2 (Fubini at L = K) is its mean over
the cone-volume measure h_K dS_K / (3 V(K)), so m <= P <= M.  q(K, x), the
axis ratio of K's Schwartz symmetral about x, is at most ratio(K, x); so
Q(K) = max q <= M(K), P >= 6 follows from q >= 6, and Q can exceed P.
Polar volumes, behind the Zhang-Petty band
20/27 <= V((Pi K)^polar) V(K)^2 <= 64/27, are exact hull volumes.
The two quadrilinear forms s_term/t_term drive the sharp constant 4/3: their
symmetrizations satisfy t_sym <= (4/3) s_sym, which is equivalent to the
zonoid bound M <= 8.

Index convention: s_sym/t_sym sum s_term/t_term over the 24 orders of the
four vectors of a tuple (distinct indices); ts_sums evaluates both in closed
form, with 4 + 3 terms.  The bridging identity

    ratio(Z, x) = 6 * sum_{tuples} t_term / sum_{tuples} s_term

over ordered generator 4-tuples fixes the normalization; the cube calibrates
the constant (8 = 6 * 4/3).

Each body supplies what is derived from it (pi_body, candidates, hull, a
revolution body's polytope); only the ball, with closed forms, is special.
"""

import math
from collections import namedtuple
from functools import partial, wraps

import numpy as np

from .bodies import Ball
from .errors import InputError, LimitError, SymmetryError
from .geom import (_chunks, _count, _reduce_dots, as_vec, convex_hull, cross, fibonacci_sphere,
                   plane_basis, slice_quadratics, unit_rows, unitize)
from .revolution import RevolutionBody
from .zonotope import pi2_count, pi2_rows, triple_dets, z_shadow_area

BALL_RATIO = 3.0 * math.pi ** 2 / 4.0  # Pi^2 B = pi^3 B, V(B) = 4pi/3
INVARIANTS = ("P", "M", "m", "Q")

# Pi^2 K in 8 V(K) K for zonoids and 6 V(K) K in Pi^2 K for symmetric K as
# limits on the invariants, each on the bodies whose class flag holds_for is
# set: a value beyond its constant by more than LIMIT_MARGIN is a bug
Limit = namedtuple("Limit", "constant upper holds_for")
LIMITS = {"M": Limit(8.0, True, "zonoid"), "m": Limit(6.0, False, "symmetric"),
          "Q": Limit(6.0, False, "symmetric")}
LIMIT_MARGIN = 1e-9


def check_limit(name, value, body=None, label=""):
    """Raise LimitError, one line led by label, where value crosses LIMITS[name].

    NaN crosses.  A name without an entry passes, and so does a body without
    the entry's flag; body None stands for a caller whose bodies all have it.
    """
    limit = LIMITS.get(name)
    if limit and value is not None and (body is None or getattr(body, limit.holds_for, False)):
        c, op = limit.constant, ">" if limit.upper else "<"
        if not (value <= c + LIMIT_MARGIN if limit.upper else value >= c - LIMIT_MARGIN):
            raise LimitError(f"{label}{name} = {value:.12g} {op} {c:g} on a "
                             f"{limit.holds_for} body: evaluator bug")


# the tuple without v_l, for l = 1..3, oriented so that w_0 = -(w_1 + w_2 + w_3)
# in ts_sums
_TRIPLES = np.array([[2, 0, 3], [0, 1, 3], [1, 0, 2]])


def s_term(a, b, c, w, x):
    """|det(a, b, c)| * |<w, x>| for 3-vectors."""
    a, b, c, w, x = (as_vec(v, 3) for v in (a, b, c, w, x))
    return abs(float(np.dot(np.cross(a, b), c))) * abs(float(np.dot(w, x)))


def t_term(a, b, c, w, x):
    """|det(a x b, c x w, x)| for 3-vectors."""
    a, b, c, w, x = (as_vec(v, 3) for v in (a, b, c, w, x))
    return abs(float(np.dot(np.cross(np.cross(a, b), np.cross(c, w)), x)))


def ts_sums(V, X):
    """(s_sym, t_sym) of a (4, 3) tuple V and a direction X, as two floats.

    Rows V (B, 4, 3) and X (B, 3) give two arrays, one entry per row, equal
    to single calls bit for bit.  s_term repeats over the 6 orders of each
    triple and t_term over the 8 orders of each pairing {ij|kl}.  Let
    w_l = +-det(V without v_l) <v_l, x>, signed so that the four sum to 0
    (Cramer's rule).  Binet-Cauchy,
    det(a x b, c x d, x) = det(a,b,d) <c,x> - det(a,b,c) <d,x>, makes the
    pairing {ij|kl} worth |w_k + w_l|, so

        s_sym = 6 * (|w_1 + w_2 + w_3| + |w_1| + |w_2| + |w_3|)
        t_sym = 8 * (|w_2 + w_3| + |w_1 + w_3| + |w_1 + w_2|)

    and t_sym <= (4/3) s_sym is Hlawka's inequality in w_1, w_2, w_3.
    Taking w_0 from the other three keeps it to the rounding of these sums
    even where the determinants cancel, as in near-coplanar tuples.  A
    coplanar tuple gives s_sym = t_sym = 0.
    """
    V = np.asarray(V, dtype=float)
    X = np.asarray(X, dtype=float)
    if V.shape[-2:] != (4, 3) or V.shape[:-2] + (3,) != X.shape or X.ndim > 2:
        raise InputError(f"expected (4, 3) and 3 or (B, 4, 3) and (B, 3) arrays, "
                         f"got {V.shape} and {X.shape}")
    V, Xs = V.reshape(-1, 4, 3), X.reshape(-1, 3)
    s, t = np.empty(Xs.shape[0]), np.empty(Xs.shape[0])
    # the triples and their products take ~1 kB per row
    for sl in _chunks(Xs.shape[0], 1024):
        T = V[sl][:, _TRIPLES]
        a, b, c = T[:, :, 0], T[:, :, 1], T[:, :, 2]
        det = np.sum(a * cross(b, c), axis=-1)
        w1, w2, w3 = (det * np.sum(V[sl, 1:] * Xs[sl, None, :], axis=-1)).T
        s[sl] = 6.0 * (np.abs(w1 + w2 + w3) + np.abs(w1) + np.abs(w2) + np.abs(w3))
        t[sl] = 8.0 * (np.abs(w2 + w3) + np.abs(w1 + w3) + np.abs(w1 + w2))
    return (float(s[0]), float(t[0])) if X.ndim == 1 else (s, t)


# --- mixed volumes and polars -------------------------------------------------

def mixed_volume(K, L):
    """V(K, L, L) = (1/3) * integral of h_K against the surface measure of L.

    K enters through its support values, L through surface_measure(), so
    each may be a polytope or a zonotope (K may also be the ball).
    """
    normals, areas = L.surface_measure()
    return float(K.support(normals) @ areas) / 3.0


def polar_volume(B):
    """Volume of the polar body, exactly: the hull of n / h_B(n) over B's facet normals.

    The ball is self-polar; a revolution body is taken as its polytopal
    realization.  B must contain the origin in its interior.
    """
    B = _realized(B)
    if isinstance(B, Ball):
        return B.volume
    normals, _ = B.surface_measure()
    h = B.support(normals)
    if np.min(h) <= 1e-12 * np.max(h):
        raise InputError("body must contain the origin in its interior")
    return convex_hull(normals / h[:, None]).volume


# --- the direction ratio and its extrema --------------------------------------

def _realized(B):
    """The body the evaluators work on: a revolution body's 64-gon polytope, else B."""
    return B.polytope if isinstance(B, RevolutionBody) else B


def _per_row(rows_fn):
    """Lift rows_fn(B, rows) to one direction x (a float) or the rows of X.

    B is realized first; the ball has the closed value 3 pi^2/4 for both
    ratio and q.
    """
    @wraps(rows_fn)
    def evaluator(B, X):
        X = np.asarray(X, dtype=float)
        B, U = _realized(B), np.atleast_2d(X)
        vals = np.full(U.shape[0], BALL_RATIO) if isinstance(B, Ball) else rows_fn(B, U)
        return float(vals[0]) if X.ndim == 1 else vals
    return evaluator


@_per_row
def ratio(B, X):
    """h_{Pi^2 B}(x) / (h_B(x) * V(B)) for one direction x, or per row of X.

    The numerator is the shadow of Pi B.  Zonotopes and polytopes are exact,
    the ball analytic, and a revolution body is evaluated on its polytopal
    realization.  B must be symmetric (SymmetryError otherwise).
    """
    return _ratio_rows(B, X)[0]()


def _ratio_rows(B, X):
    """ratio's evaluator on the rows of X: (at, den), den = h_B(X) V(B) checked positive.

    at(rows=None, vertices=False) is ratio(B, X[rows]) (all rows for None),
    its shadows priced for all of X (z_shadow_area's d); with vertices, also
    the vertices of Pi^2 B supporting them.  B must be symmetric.
    """
    if not B.symmetric:
        raise SymmetryError("direction ratio requires a symmetric body")
    den = B.support(X) * B.volume
    if (den <= 0.0).any():
        raise InputError("support must be positive in every requested direction")

    def at(rows=None, vertices=False):
        Y, h = (X, den) if rows is None else (X[rows], den[rows])
        num = z_shadow_area(B.pi_body, Y, len(X), vertices)
        return (num[0] / h, num[1]) if vertices else num / h
    return at, den


# 1/(2k+3), k = 1..24: the series phi(y) = sum_k (-y)^k/(2k+3) after its 1/3
_PHI = 1.0 / (2.0 * np.arange(1, 25) + 3.0)
# _PHI4[5 - i, r] = _PHI[4i + r], a column each
_PHI4 = _PHI.reshape(6, 4)[::-1, :, None]


def sqrt_quadratic_integral(a, b, c):
    """Integral of sqrt(q) = sqrt(a + b t + c t^2) over t in [0, 1], elementwise.

    q must be nonnegative on [0, 1].  The antiderivative (Gradshteyn-Ryzhik
    2.262) is (p r - D J)/(2c) with p = q'/2, r = sqrt(q), D = b^2/4 - a c and
    J = int dt/sqrt(q), an arcsin for c < 0 and an asinh for c > 0.  Its terms
    cancel as c -> 0, so where the angle J sweeps is small (|y| <= 1/4 below)
    the integral is (T/2)(r0^2 + r1^2 - D T^2 phi(y)) instead, with
    T = tan(angle)/sqrt(-c) formed from the end values and phi the series of
    (z - atan z)/z^3 in y = z^2, cut after 25 terms (tail below 4^-25).
    The series and the closed form each run on their own pieces only (most
    pieces of a slice take the series).  Error: within 1e-12 relative,
    checked against mpmath on every branch.  The result has the broadcast
    shape of a, b and c.
    """
    a, b, c = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, c)))
    shape = a.shape
    a, b, c = (v.ravel() for v in (a, b, c))
    # the integral scales as sqrt(m) with the coefficients; unit scale keeps
    # tiny pieces clear of underflow
    m = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.finfo(float).tiny))
    a, b, c = a / m, b / m, c / m
    p0, p1 = 0.5 * b, 0.5 * b + c
    r0, r1 = np.sqrt(np.maximum(a, 0.0)), np.sqrt(np.maximum(a + b + c, 0.0))
    D, W, X = p0 * p0 - c * r0 * r0, r1 * p0 - r0 * p1, p0 * p1 - c * r0 * r1
    out = np.empty(a.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # T = W/X; where p keeps its sign, W/X = (p0 + p1)/(r0 p0 + r1 p1)
        den = r0 * p0 + r1 * p1
        T = np.where((p0 * p1 >= 0.0) & (den != 0.0), (p0 + p1) / den, W / X)
        flat = (p0 == 0.0) & (p1 == 0.0)
        T[flat] = 2.0 / (r0[flat] + r1[flat])
        y = -c * T * T
        series = (np.abs(y) <= 0.25) & ((c >= 0.0) | (X > 0.0) | flat)
        s = np.flatnonzero(series)
        Ts, z = T[s], -y[s]
        # phi - 1/3 = z sum_r z^r sum_i _PHI[4i + r] z^4i: Horner in z^4 on
        # four rows at once
        z4 = z * z
        z4 *= z4
        acc = np.repeat(_PHI4[0], s.size, axis=1)
        for row in _PHI4[1:]:
            acc *= z4
            acc += row
        phi = 1.0 / 3.0 + z * (acc[0] + z * (acc[1] + z * (acc[2] + z * acc[3])))
        out[s] = 0.5 * Ts * (r0[s] * r0[s] + r1[s] * r1[s] - D[s] * Ts * Ts * phi)
        f = np.flatnonzero(~series)
        if f.size:
            c_, p0, p1, r0_, r1_, D, W, X = (v[f] for v in (c, p0, p1, r0, r1, D, W, X))
            sc, sD = np.sqrt(np.abs(c_)), np.sqrt(np.abs(D))
            # sqrt|c| J: for c < 0 the angle atan2(sqrt(-c) W, X) in [0, pi];
            # for c > 0, p = +-sqrt(D) cosh and sqrt(c) r = sqrt(D) sinh (D >
            # 0), or p = sqrt(-D) sinh and sqrt(c) r = sqrt(-D) cosh (D < 0)
            J = np.where(c_ < 0.0, np.arctan2(sc * W, X), np.where(
                D > 0.0, np.sign(p0 + p1) * (np.arcsinh(sc * r1_ / sD) - np.arcsinh(sc * r0_ / sD)),
                np.arcsinh(p1 / sD) - np.arcsinh(p0 / sD)))
            out[f] = ((p1 * r1_ - p0 * r0_) - np.where(D != 0.0, D * J, 0.0) / sc) / (2.0 * c_)
    # q <= 0 throughout: nothing to integrate
    out[(r0 == 0.0) & (r1 == 0.0) & (c >= 0.0)] = 0.0
    return (np.sqrt(m) * out).reshape(shape)[()]


@_per_row
def q_direction(B, X):
    """q(B, x) = 4 (int sqrt(V_2(slice)) ds)^2 / (h_B(x) V(B)), one x or per row of X.

    Section quadratics from prefix sums over the vertex heights
    (geom.slice_quadratics, exact up to its stated rounding) integrated in
    closed form (sqrt_quadratic_integral, within 1e-12 relative), over
    chunks of rows, on B.hull (a zonotope's vertex hull).  The ball is analytic
    (int sqrt(pi(1-s^2)) = sqrt(pi) pi/2); a revolution body is evaluated
    on its polytopal realization.
    """
    B = B.hull
    out = np.empty(X.shape[0])
    # a direction's quadratics take ~700 bytes per facet of B and their
    # integrals ~500 per vertex, however many pieces each facet spans;
    # chunks of about four _CHUNK_BYTES of them (4 MiB: 54 directions of
    # icosphere1, 13 of icosphere2) ran fastest
    row_bytes = (700 * B.facets.shape[0] + 500 * B.vertices.shape[0]) // 4
    for sl in _chunks(X.shape[0], row_bytes):
        H, C = slice_quadratics(B, X[sl])
        pieces = sqrt_quadratic_integral(C[..., 0], C[..., 1], C[..., 2])
        integral = np.sum(np.diff(H, axis=1) * pieces, axis=1)
        # even support convention (max |<x, y>|) so asymmetric bodies work too
        out[sl] = 4.0 * integral ** 2 / (np.maximum(H[:, -1], -H[:, 0]) * B.volume)
    return out


def petty_value(B):
    """P(B) = V(Pi B) / V(B)^2, exact for zonotopes and polytopes."""
    B = _realized(B)
    if isinstance(B, Ball):
        return BALL_RATIO  # conjectured minimum value, exact for the ball
    return B.pi_body.volume / B.volume ** 2


def _nelder_mead(f, steps):
    """Minimize f from the simplex (0, 0), (0.04, 0), (0, 0.04): (t, f(t)).

    scipy's non-adaptive Nelder-Mead with xatol 1e-9, fatol 1e-12 and at
    most steps - 1 iterations: the same points, compared in the same order,
    so the same result for the same f.  f takes a list of points (t1, t2)
    and returns their values.  Each iteration asks in one call for all four
    moves c + s (c - worst), s = 1, 2, 1/2, -1/2 (reflection, expansion,
    outside and inside contraction; c the centroid of the other two), and
    takes the one scipy would; a shrink asks for its two new points in a
    second call.
    """
    sim = [(0.0, 0.0), (0.04, 0.0), (0.0, 0.04)]
    vals = f(sim)
    for it in range(steps):
        # stable, as numpy's argsort is on three values
        order = sorted(range(3), key=vals.__getitem__)
        sim, vals = [sim[k] for k in order], [vals[k] for k in order]
        (b1, b2), (m1, m2), (w1, w2) = sim
        if it == steps - 1 or (
                max(abs(m1 - b1), abs(m2 - b2), abs(w1 - b1), abs(w2 - b2)) <= 1e-9
                and max(abs(vals[0] - vals[1]), abs(vals[0] - vals[2])) <= 1e-12):
            break
        c1, c2 = (b1 + m1) / 2, (b2 + m2) / 2
        moves = [(2 * c1 - w1, 2 * c2 - w2), (3 * c1 - 2 * w1, 3 * c2 - 2 * w2),
                 (1.5 * c1 - 0.5 * w1, 1.5 * c2 - 0.5 * w2),
                 (0.5 * c1 + 0.5 * w1, 0.5 * c2 + 0.5 * w2)]
        fr, fe, fc, fcc = trial = f(moves)
        if fr < vals[0]:
            k = 1 if fe < fr else 0
        elif fr < vals[1]:
            k = 0
        elif fr < vals[2]:
            k = 2 if fc <= fr else None
        else:
            k = 3 if fcc < vals[2] else None
        if k is None:  # shrink towards the best point
            sim[1:] = [(b1 + 0.5 * (m1 - b1), b2 + 0.5 * (m2 - b2)),
                       (b1 + 0.5 * (w1 - b1), b2 + 0.5 * (w2 - b2))]
            vals[1:] = f(sim[1:])
        else:
            sim[2], vals[2] = moves[k], trial[k]
    return sim[0], vals[0]


def _chart_refine(fn, x0, v0, maximize, steps):
    """Polish the extremum v0 = fn(x0) by Nelder-Mead in a chart about x0: (x, v).

    fn evaluates rows of directions, as ratio(B, .) and q_direction(B, .)
    do.  The chart F = [x0 u w] has the tangent plane's orthonormal frame
    (u, w) as its last columns, and the point t = (t1, t2) is the direction
    F (1, t1, t2); both functions are homogeneous of degree 0, so it needs
    no normalizing.  _nelder_mead runs on sign * fn, four trial points a
    call, which cost ratio about 2 ns per pair row of Pi B and point
    (geom._reduce_dots).  The polished direction is kept only when it
    strictly improves on v0; otherwise F[:, 0] and v0 come back.
    """
    u, w = plane_basis(unitize(x0))
    F = np.column_stack([x0, u, w])
    sign = -1.0 if maximize else 1.0

    def f(points):
        T = np.array([(1.0, a, b) for a, b in points])
        return (sign * fn(T @ F.T)).tolist()

    (t1, t2), v = _nelder_mead(f, steps)
    v *= sign
    if (v > v0) if maximize else (v < v0):
        return unitize(F @ (1.0, t1, t2)), v
    return F[:, 0], v0


# _scan's batches: _FIRST_BATCH rows, then twice as many each time; a lower
# bound less _PRUNE_MARGIN of its size covers the rounding of the bound and
# of the value
_FIRST_BATCH = 64
_PRUNE_MARGIN = 1e-9
# fewest grid rows at which Q alone evaluates the ratios to prune its grid.
# They cost Pi B (when P has not built it) and a shadow per row.  Measured
# with numpy 2 on one core, over fresh symmetric hulls: at 77 rows (5 pairs,
# grid 48, as min-Q-symmetric steps take) pruning took 1.24 times as long,
# at 95 rows (8 pairs, grid 48) 0.80 and at 125 (5 pairs, grid 96) 0.86; at
# 1,000 rows and more it takes half or less.  With m on the grid the ratios
# are there.
_PRUNE_MIN = 96
# the grid and refinement steps of Q and of a grid m in invariants, and
# compute's defaults
GRID, REFINE = 2048, 50


def _scan(fn, lower, out):
    """out with fn(rows) filled in where its lower bound can still reach the least value.

    out holds the values known already and +inf at the other rows; lower
    bounds fn's value at each row, +inf at the known ones.  The rows go in
    ascending order of lower (1 - _PRUNE_MARGIN sign(lower)), in batches of
    _FIRST_BATCH rows, then twice as many each time, until that is above the
    least value so far: every row left has a larger value, so the minimum
    and its first row on a tie are those of the full evaluation, and every
    row that ties the minimum is evaluated.  The others keep +inf.
    """
    best = float(np.min(out))
    cap = lower * (1.0 - _PRUNE_MARGIN * np.sign(lower))
    # best only falls, so a row whose cap is above it now never wins; the
    # rest are sorted
    live = np.flatnonzero(cap <= best)
    cap = cap[live]
    order = np.argsort(cap, kind="stable")
    live, cap = live[order], cap[order]
    done, size = 0, _FIRST_BATCH
    while done < len(live) and cap[done] <= best:
        # rows at and past the first cap above best cannot win
        stop = min(done + size, int(np.searchsorted(cap, best, side="right")))
        rows = live[done:stop]
        out[rows] = fn(rows)
        best = min(best, float(np.min(out[rows])))
        done, size = stop, 2 * size
    return out


def _grid_ratios(B, X, V):
    """ratio(B, X) at the rows of X that may hold its minimum, +inf at the others.

    X is a grid, then the three axes; V are vertices of Pi^2 B.  As
    h_{Pi^2 B}(x) >= max_v <v, x>, that over h_B(x) V(B) bounds every row's
    ratio from below.  The axes go first, their vertices joining V (without
    them the double cone, least at its axis, took twice the rows), and
    _scan evaluates what the bound leaves, each part priced for all of X.
    """
    at, den = _ratio_rows(B, X)
    out = np.full(len(X), np.inf)
    out[-3:], axes = at(slice(-3, None), vertices=True)
    lower = _reduce_dots(np.vstack([V, axes]), X, True) / den
    lower[-3:] = np.inf
    return _scan(at, lower, out)


def _pi2_normals(B):
    """Unit crosses of the pairs of Pi^2 B's generators, which hold its facet normals.

    They come merged and in closed form from the generators G of Pi B
    (zonotope.pi2_rows), n + 3 C(n, 4) rows for n generators, exact zero
    rows dropped.  G is taken as unit rows: a positive scale of a generator
    turns no cross, and crosses of crosses of raw rows scale as the eighth
    power of the coordinates, below the least double at COORD_RANGE's small
    end.
    """
    G = unit_rows(B.pi_body.gens)
    return unit_rows(pi2_rows(G, triple_dets(G)))


class InvariantReport(namedtuple("InvariantReport", "P M m Q M_dir m_dir Q_dir m_source")):
    """P, M, m, Q, their directions, and m's source: "pi2 normals", "grid" or "closed form"."""


def invariants(B, grid=GRID, refine=REFINE, want=INVARIANTS):
    """Invariant report: P and M exactly, m exactly or on a grid, Q on a grid plus refinement.

    M is the largest ratio at B's candidates, which hold its facet normals:
    on the normal cone of a vertex v the ratio on <v, x> = 1 is the convex
    h_{Pi^2 B} / V(B), largest at a ray, a facet normal.  m mirrors it: on
    the normal cone of a vertex w of Pi^2 B the ratio on <w, x> = 1 is
    1 / (V(B) h_B), least where the convex h_B is largest, at a ray, a
    facet normal of Pi^2 B.  So m is the least ratio at _pi2_normals(B),
    unrefined, where they (n + 3 C(n, 4) for n generators of Pi B) are no
    more than the grid's rows.  Otherwise m, and Q always, take a Fibonacci
    sphere of `grid` points, the axes and the candidates, and polish the
    extremum by at most refine - 1 Nelder-Mead steps in a chart about it
    (_chart_refine).  The candidates take a call of their own, whatever is
    wanted, so M reads the same bits with or without m and Q; the grid and
    the axes a second, priced at their size.  On a symmetric body Q's grid
    skips the rows where the ratio, an upper bound of q, cannot beat the
    best q (_scan on -q); m on the grid without Q those where a lower bound
    of the ratio by vertices of Pi^2 B cannot beat the best ratio
    (_grid_ratios).  Either way the grid value and its row are the full
    grid's.  want names some of INVARIANTS; M and m need symmetry.
    """
    # a string would be read letter by letter
    if type(want) is str or not set(want) <= set(INVARIANTS):
        raise InputError(f"want must be a sequence of names from {INVARIANTS}, got {want!r}")
    grid, refine = _count(grid, "grid"), _count(refine, "refine")
    if refine < 0:
        raise InputError(f"refine must be at least 0, got {refine}")
    want = set(want)
    B = _realized(B)
    if isinstance(B, Ball):
        v = BALL_RATIO
        return InvariantReport(v, v, v, v, None, None, None, "closed form")
    if ("M" in want or "m" in want) and not B.symmetric:
        raise SymmetryError("M and m are defined for symmetric bodies")

    P = petty_value(B) if "P" in want else None
    # P, M and an exact m read no grid
    C, found = B.candidates, {}
    exact_m = "m" in want and pi2_count(len(B.pi_body)) <= grid + 3 + len(C)
    grid_m = "m" in want and not exact_m
    if grid_m or "Q" in want:
        G = np.vstack([fibonacci_sphere(grid), np.eye(3)])
        X = np.vstack([G, C])
    # the grid's ratios bound q there; Q alone pays for them from _PRUNE_MIN rows
    prune = "Q" in want and B.symmetric and (grid_m or grid + 3 + len(C) >= _PRUNE_MIN)
    scan = grid_m and not prune  # bounded by the candidates' vertices
    if "M" in want or grid_m or prune:
        cand, V = _ratio_rows(B, C)[0](vertices=True) if scan else (ratio(B, C), None)
    if "M" in want:
        found["M"] = C[np.argmax(cand)], float(np.max(cand))
    if grid_m or prune:
        ratios = np.concatenate([_grid_ratios(B, G, V) if scan else ratio(B, G), cand])
    if exact_m:
        U = _pi2_normals(B)
        values = ratio(B, U)
        i = int(np.argmin(values))
        found["m"] = U[i], float(values[i])
    for name, fn, sign in (("m", ratio, 1.0), ("Q", q_direction, -1.0)):
        if name not in want or name in found:
            continue
        if name == "m":
            values = ratios
        elif prune:
            # Schwartz symmetrization about x never raises the ratio, and the
            # symmetral's ratio at its axis is q (verify schwartz-monotone)
            values = _scan(lambda rows: -q_direction(B, X[rows]), -ratios,
                           np.full(len(X), np.inf))
        else:
            values = -q_direction(B, X)
        i = int(np.argmin(values))
        x, v = X[i], sign * float(values[i])
        if refine > 0:
            x, v = _chart_refine(partial(fn, B), x, v, sign < 0.0, refine)
        found[name] = x, v
    (M_dir, M), (m_dir, m), (Q_dir, Q) = (found.get(k, (None, None)) for k in "MmQ")
    source = "pi2 normals" if exact_m else "grid" if grid_m else None
    return InvariantReport(P, M, m, Q, M_dir, m_dir, Q_dir, source)


def sl_invariance_check(B, T):
    """Max relative deviation of M and m under a map of det 1 (invariants' defaults).

    M is exact, and so is m where invariants reads it at the facet normals
    of Pi^2 B; a grid m moves with the grid's frame, which the map turns.
    """
    T = np.asarray(T, dtype=float)
    if T.shape != (3, 3) or abs(np.linalg.det(T) - 1.0) > 1e-9:
        raise InputError("map must be a 3x3 matrix with determinant 1")
    if not hasattr(B, "map_linear"):
        raise InputError("invariance check needs a polytope or zonotope")
    r0, r1 = (invariants(K, want=("M", "m")) for K in (B, B.map_linear(T)))
    return max(abs(r1.M - r0.M) / abs(r0.M), abs(r1.m - r0.m) / abs(r0.m))
