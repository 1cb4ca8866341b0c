"""Bodies of revolution in any dimension d >= 3.

A body is stored as an even, concave, nonnegative piecewise-linear radial
profile f on [-a, a] around its axis.  All the quantities needed downstream
reduce to integrals of powers of f, which are integrated in closed form per
linear piece, so the sharp-constant checks carry no quadrature noise:

    volume                 V  = w_{d-1} * int f^{d-1}
    axis support of Pi^2   h  = w_{d-2}^{d-1} * w_{d-1} * (int f^{d-2})^{d-1}
    axis ratio             h / (a * V^{d-2})

The axis ratio is minimized exactly by the double cone (tent profile), where
it equals cone_bound(d) = 2 d^{d-2} / (d-1)^{d-1} * w_{d-2}^{d-1} w_{d-1}^{3-d}.
"""

import math
from functools import cached_property

import numpy as np

from .errors import InputError
from .geom import convex_hull

_EVEN_TOL = 1e-12


def ball_volume(k):
    """Volume of the k-dimensional unit ball, pi^{k/2} / Gamma(k/2 + 1)."""
    if k < 1:
        raise InputError("dimension must be >= 1")
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0)


def log_ball_volume(k):
    """log of ball_volume(k); safe for large k."""
    if k < 1:
        raise InputError("dimension must be >= 1")
    return (k / 2.0) * math.log(math.pi) - math.lgamma(k / 2.0 + 1.0)


def ball_volumes(d):
    """Unit-ball volumes w_1 .. w_d as an array (index k-1 holds w_k)."""
    return np.array([ball_volume(k) for k in range(1, d + 1)])


def validate_profile(s, f):
    """Check node arrays for an even, concave, nonnegative, nonzero profile."""
    s = np.asarray(s, dtype=float)
    f = np.asarray(f, dtype=float)
    if s.ndim != 1 or s.shape != f.shape or s.size < 2:
        raise InputError("profile needs matching node arrays with >= 2 nodes")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(f))):
        raise InputError("profile has non-finite entries")
    if np.any(np.diff(s) <= 0.0):
        raise InputError("profile nodes must be strictly increasing")
    a = s[-1]
    scale = max(float(np.max(np.abs(f))), 1e-300)
    if abs(s[0] + a) > _EVEN_TOL * abs(a):
        raise InputError("profile domain must be symmetric [-a, a]")
    if np.any(f < -_EVEN_TOL * scale):
        raise InputError("profile must be nonnegative")
    if np.max(f) <= 0.0:
        raise InputError("profile is identically zero")
    # evenness: reversed nodes must match
    if (np.max(np.abs(s + s[::-1])) > _EVEN_TOL * abs(a)
            or np.max(np.abs(f - f[::-1])) > _EVEN_TOL * scale):
        raise InputError("profile must be even")
    # concavity of the node sequence
    if s.size >= 3:
        slopes = np.diff(f) / np.diff(s)
        if np.any(np.diff(slopes) > 1e-9 * scale / max(a, 1e-300)):
            raise InputError("profile must be concave")
    return s, np.maximum(f, 0.0)


class RevolutionBody:
    """Convex body of revolution: dimension, half-length, radial profile.

    The axis is the last coordinate.  Volume and support are exact; the
    projection-body quantities need the polytopal realization `polytope`.
    """

    symmetric = True

    def __init__(self, d, a, s_nodes, f_nodes):
        if d < 3:
            raise InputError("revolution bodies need dimension >= 3")
        if not (a > 0.0 and np.isfinite(a)):
            raise InputError("half-length must be positive")
        s, f = validate_profile(s_nodes, f_nodes)
        if abs(s[-1] - a) > 1e-12 * a:
            raise InputError("profile domain must end at the half-length a")
        self.d = int(d)
        self.a = float(a)
        self.s = s
        self.f = f

    def scaled(self, lam):
        return RevolutionBody(self.d, lam * self.a, lam * self.s, lam * self.f)

    @cached_property
    def polytope(self):
        """The 64-gon polytopal realization (rev_to_polytope), built once."""
        return rev_to_polytope(self)

    @property
    def volume(self):
        return rev_volume(self)

    def support(self, X):
        """max_k s_k <x, axis> + f_k |x_perp|: the body is the hull of its node spheres."""
        X = np.asarray(X, dtype=float)
        radial = np.linalg.norm(X[..., :-1], axis=-1)
        return np.max(np.multiply.outer(X[..., -1], self.s)
                      + np.multiply.outer(radial, self.f), axis=-1)

    def surface_measure(self):
        raise InputError("revolution bodies have no finite surface measure; "
                         "use rev_to_polytope")

    def projection_generators(self):
        raise InputError("revolution bodies have no projection generators; "
                         "use rev_to_polytope")


def profile_power_integral(s, f, p):
    """Exact integral of f^p over the node range for piecewise-linear f >= 0.

    Per piece with endpoint values u0, u1:  len * (u1^{p+1} - u0^{p+1})
    / ((p+1)(u1 - u0)), with the stable midpoint fallback when u0 ~ u1.
    """
    if p < 0:
        raise InputError("exponent must be nonnegative")
    s = np.asarray(s, dtype=float)
    f = np.asarray(f, dtype=float)
    total = 0.0
    for k in range(s.size - 1):
        u0, u1 = f[k], f[k + 1]
        length = s[k + 1] - s[k]
        if length <= 0.0:
            continue
        hi = max(u0, u1)
        if hi == 0.0:
            continue
        if abs(u1 - u0) <= 1e-9 * hi:
            total += length * (0.5 * (u0 + u1)) ** p
        else:
            total += length * (u1 ** (p + 1.0) - u0 ** (p + 1.0)) / ((p + 1.0) * (u1 - u0))
    return float(total)


def rev_volume(R):
    """Volume w_{d-1} * int f^{d-1} ds."""
    return ball_volume(R.d - 1) * profile_power_integral(R.s, R.f, R.d - 1)


def rev_second_proj_axis(R):
    """Support of the second projection body along the axis of revolution.

    Equals w_{d-2}^{d-1} w_{d-1}^{3-d} (int (w_{d-1} f^{d-1})^{(d-2)/(d-1)})^{d-1},
    which collapses to w_{d-2}^{d-1} * w_{d-1} * (int f^{d-2})^{d-1}; for d=3
    this is 4*pi*(int f)^2.
    """
    d = R.d
    integral = profile_power_integral(R.s, R.f, d - 2)
    return ball_volume(d - 2) ** (d - 1) * ball_volume(d - 1) * integral ** (d - 1)


def axis_ratio(R):
    """h_{Pi^2 K}(axis) / (h_K(axis) * V(K)^{d-2}); >= cone_bound(d) always."""
    return rev_second_proj_axis(R) / (R.a * rev_volume(R) ** (R.d - 2))


def cone_bound(d):
    """Sharp lower bound 2 d^{d-2} (d-1)^{-(d-1)} w_{d-2}^{d-1} w_{d-1}^{3-d}.

    Attained by the double cone; equals 6 for d = 3.  Evaluated in log space
    so it stays finite for large d.
    """
    if d < 3:
        raise InputError("bound defined for dimension >= 3")
    return math.exp(math.log(2.0) + (d - 2) * math.log(d) - (d - 1) * math.log(d - 1)
                    + (d - 1) * log_ball_volume(d - 2) + (3 - d) * log_ball_volume(d - 1))


def ball_petty_value(d):
    """P of the d-dimensional unit ball, w_{d-1}^d * w_d^{2-d} (log-space)."""
    if d < 2:
        raise InputError("dimension must be >= 2")
    return math.exp(d * log_ball_volume(d - 1) + (2 - d) * log_ball_volume(d))


class BerwaldResult(tuple):
    """(lhs, rhs) of the concave-profile moment comparison plus equality flag."""

    def __new__(cls, lhs, rhs, equality):
        self = super().__new__(cls, (lhs, rhs))
        self.lhs = lhs
        self.rhs = rhs
        self.equality = equality
        return self


def berwald_check(s_nodes, f_nodes, p, q):
    """Moment comparison for an even concave profile: lhs >= rhs for 0 < p < q.

    lhs = ((1+p)/(2a) int f^p)^{1/p},  rhs = ((1+q)/(2a) int f^q)^{1/q}.
    Equality holds exactly for tent profiles (linear on each half, vanishing
    at +-a); the returned flag marks relative residuals below 1e-10.
    """
    if not (0.0 < p < q):
        raise InputError("need exponents 0 < p < q")
    s, f = validate_profile(s_nodes, f_nodes)
    a = s[-1]
    lhs = ((1.0 + p) / (2.0 * a) * profile_power_integral(s, f, p)) ** (1.0 / p)
    rhs = ((1.0 + q) / (2.0 * a) * profile_power_integral(s, f, q)) ** (1.0 / q)
    equality = (lhs - rhs) <= 1e-10 * max(lhs, 1e-300)
    return BerwaldResult(float(lhs), float(rhs), bool(equality))


def rev_to_polytope(R):
    """Polytopal realization of a d=3 revolution body with 64-gon cross sections."""
    if R.d != 3:
        raise InputError("polytopal realization implemented for d = 3 only")
    m = 64
    th = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    ring = np.column_stack([np.cos(th), np.sin(th)])
    pts = []
    for sk, fk in zip(R.s, R.f):
        if fk <= 1e-14 * np.max(R.f):
            pts.append([0.0, 0.0, sk])
        else:
            pts.extend(np.column_stack([fk * ring, np.full(m, sk)]).tolist())
    # make sure the body is closed even when f(+-a) > 0
    pts.append([0.0, 0.0, R.s[0]])
    pts.append([0.0, 0.0, R.s[-1]])
    return convex_hull(np.array(pts), symmetric=True)
