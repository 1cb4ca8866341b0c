"""Named verification suites mapping one-to-one onto the library's properties.

Each suite draws seeded random inputs, checks an inequality or identity at
its stated tolerance, and returns report rows; FAIL rows carry the seed and
sample index needed to reproduce the witness.  SUITES maps each name to its
function and default sample count.
"""

import zlib
from collections import namedtuple

import numpy as np

from . import fixtures
from .errors import InputError, LimitError
from .functionals import (LIMITS, check_limit, invariants, m_values, mixed_volume, petty_value,
                          polar_volume, q_direction, ratio, sl_invariance_check, ts_sums)
from .geom import Polytope, _chunks, plane_basis, unitize
from .report import Row, check
from .revolution import berwald_check
from .symmetrize import steiner_shadows
from .zonotope import (GeneratorSet, cache_pi_bodies, second_proj_support, stack_ratios,
                       z_shadow_area, zonogon_area)

SHARP_TS = 4.0 / 3.0


def _rng(seed, tag):
    # crc32 keeps the per-suite stream stable across processes
    key = zlib.crc32(tag.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def _worst(seed, values, lowest=False, label="sample", notes=None):
    """The largest (smallest if lowest) per-sample value and its witness.

    The witness "seed=S sample=K" names the first sample attaining the
    value, followed by notes[K] when notes are given.  A value of -inf
    (+inf if lowest) marks a skipped sample: when no sample was evaluated,
    the result is that value with an empty witness.
    """
    skipped = np.inf if lowest else -np.inf
    values = np.asarray(values, dtype=float)
    if not values.size:
        return skipped, ""
    k = int(np.argmin(values) if lowest else np.argmax(values))
    if values[k] == skipped:
        return skipped, ""
    witness = f"seed={seed} {label}={k}" + (f" {notes[k]}" if notes else "")
    return float(values[k]), witness


def _bound_row(name, seed, values, bound, lowest=False, **witness):
    """PASS where the worst sample (_worst) is at most bound, or at least bound if lowest."""
    worst, detail = _worst(seed, values, lowest, **witness)
    return check(name, worst >= bound if lowest else worst <= bound, value=worst,
                 tolerance=bound, detail=detail)


def _ts_ratios(tuples, xs):
    """t_sym/s_sym per sample; -inf, a skipped sample, where s_sym = 0."""
    s, t = ts_sums(tuples, xs)
    return np.divide(t, s, out=np.full(s.shape, -np.inf), where=s > 0.0)


def suite_ts_ratio(samples, seed):
    """t_sym <= (4/3) s_sym on random 4-tuples; parallel pairs give exactly 4/3."""
    rng = _rng(seed, "ts")
    tuples = rng.standard_normal((samples, 4, 3))
    xs = rng.standard_normal((samples, 3))
    rows = [_bound_row("ts-ratio-bound", seed, _ts_ratios(tuples, xs), SHARP_TS + 1e-12)]
    # tuples with a repeated direction sit exactly on the constant; keep the
    # family away from the degenerate slabs (coplanar triple, direction
    # orthogonal to the repeated vector) where cancellation would eat the
    # 1e-12 margin
    par = rng.standard_normal((1000, 4, 3))
    par /= np.linalg.norm(par, axis=2, keepdims=True)
    par[:, 3] = par[:, 2] * rng.uniform(0.5, 2.0, 1000)[:, None]
    xs = rng.standard_normal((1000, 3))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    dets = np.abs(np.einsum("ij,ij->i", np.cross(par[:, 0], par[:, 1]), par[:, 2]))
    dots = np.abs(np.einsum("ij,ij->i", par[:, 2], xs))
    rows.append(_bound_row("ts-ratio-parallel-pair", seed,
                           np.where((dets > 1e-2) & (dots > 1e-2),
                                    np.abs(_ts_ratios(par, xs) - SHARP_TS), -np.inf), 1e-12))
    return rows


def suite_formula_coherence(samples, seed):
    """Shadow formula vs zonogon oracle (1e-12) and direct vs composed h_{Pi^2} (1e-9)."""
    rng = _rng(seed, "coherence")
    shadow, second = [], []
    for _ in range(samples):
        Z = fixtures.random_zonotope(rng, int(rng.integers(3, 9)))
        x = unitize(rng.standard_normal(3))
        a1 = z_shadow_area(Z, x)
        # oracles: project generators to x-perp and take the zonogon area, and
        # the support of Pi Z
        e1, e2 = plane_basis(x)
        a2 = zonogon_area(np.column_stack([Z.gens @ e1, Z.gens @ e2]))
        shadow.append(max(abs(a1 - a2), abs(a1 - Z.pi_body.support(x))) / max(a1, 1e-300))
        b1 = second_proj_support(Z, x)
        second.append(abs(b1 - z_shadow_area(Z.pi_body, x)) / max(b1, 1e-300))
    return [_bound_row("shadow-vs-zonogon-oracle", seed, shadow, 1e-12),
            _bound_row("second-support-direct-vs-composed", seed, second, 1e-9)]


def suite_fubini(samples, seed):
    """V(Pi L, Pi K) = V(Pi^2 K, L) on random body pairs; cube/tet gives 64."""
    rng = _rng(seed, "fubini")
    rels = []
    for _ in range(samples):
        K = fixtures.random_zonotope(rng, int(rng.integers(3, 7)))
        if rng.random() < 0.5:
            L = fixtures.random_zonotope(rng, int(rng.integers(3, 7)))
        else:
            L = fixtures.random_symmetric_polytope(rng, int(rng.integers(4, 9)))
        lhs = mixed_volume(L.pi_body, K.pi_body)
        rhs = mixed_volume(K.pi_body.pi_body, L)
        rels.append(abs(lhs - rhs) / max(abs(lhs), 1e-300))
    cube_z = fixtures.cube_zonotope()
    tet = fixtures.tetrahedron()
    lhs = mixed_volume(tet.pi_body, cube_z.pi_body)
    rhs = mixed_volume(cube_z.pi_body.pi_body, tet)
    ok = abs(lhs - 64.0) <= 1e-9 and abs(rhs - 64.0) <= 1e-9
    return [_bound_row("fubini-identity", seed, rels, 1e-9),
            check("fubini-cube-tetrahedron", ok, value=lhs, tolerance=1e-9,
                  detail=f"both sides should be 64, got {lhs:.12g}/{rhs:.12g}")]


def suite_minkowski(samples, seed):
    """V(K,L) >= V(K)^{1/3} V(L)^{2/3} and V(K,K) = V(K) on random pairs."""
    rng = _rng(seed, "minkowski")
    slack, diag = [], []
    for K, L in _drawn(rng, samples, lambda rng, hull, _: (_random_body(rng, hull),
                                                         _random_body(rng, hull))):
        vK, vL = K.volume, L.volume
        slack.append(mixed_volume(K, L) / (vK ** (1.0 / 3.0) * vL ** (2.0 / 3.0)))
        diag.append(abs(mixed_volume(L, L) - vL) / vL)
    return [_bound_row("minkowski-inequality", seed, slack, 1.0 - 1e-9, lowest=True),
            _bound_row("mixed-volume-diagonal", seed, diag, 1e-9)]


def _random_body(rng, hull):
    """A random zonotope or symmetric hull, the hull drawn by hull (fixtures.draw_chunk)."""
    if rng.random() < 0.5:
        return fixtures.random_zonotope(rng, int(rng.integers(3, 8)))
    return hull(rng, int(rng.integers(4, 11)))


def _draws(rng, samples, draw, sample_bytes=10_000):
    """(slice, samples) of draw's samples (fixtures.draw_chunk), in chunks of about _CHUNK_BYTES.

    A chunk's hulls are finished in one stack and their Pi bodies merged in
    one pass (zonotope.cache_pi_bodies).  sample_bytes is what a sample
    keeps while its chunk is read.
    """
    for sl in _chunks(samples, sample_bytes):
        chunk = fixtures.draw_chunk(rng, len(range(*sl.indices(samples))), draw)
        cache_pi_bodies([B for sample in chunk for B in sample if isinstance(B, Polytope)])
        yield sl, chunk


def _drawn(rng, samples, draw):
    """draw's samples one at a time (_draws), each let go of once the next is taken.

    What a sample's bodies cache as it is read (Pi^2 K, determinant tables)
    then goes with it, as when it was drawn on its own.
    """
    for _, chunk in _draws(rng, samples, draw):
        chunk.reverse()
        while chunk:
            yield chunk.pop()


def suite_steiner_monotone(samples, seed):
    """Shadow of Pi K on planes through nu never grows under Steiner."""
    rng = _rng(seed, "steiner")
    gaps = np.full(samples, -np.inf)  # -inf: no plane through nu and h2
    # a sample keeps its hull, its symmetral's, both Pi bodies and the pair
    # crosses their shadows cache: about 40 kB
    for sl, cases in _draws(rng, samples, _steiner_case, 40_000):
        live = [k for k, (_, nu, h2) in enumerate(cases) if abs(np.dot(nu, h2)) <= 1.0 - 1e-6]
        before, after = steiner_shadows([cases[k] for k in live])
        gaps[sl][live] = (after - before) / np.maximum(before, 1e-300)
    return [_bound_row("steiner-shadow-monotone", seed, gaps, 1e-9)]


def _steiner_case(rng, hull, _):
    """steiner-monotone's sample: a symmetric hull, nu and a second direction."""
    P = hull(rng, int(rng.integers(4, 11)))
    return P, unitize(rng.standard_normal(3)), unitize(rng.standard_normal(3))


def suite_schwartz_monotone(samples, seed):
    """Schwartz symmetrization never raises the ratio: q(P, x) <= ratio(P, x), exact.

    Equality first (the cube's axes, the cylinder's), then seeded random hulls.
    """
    rng = _rng(seed, "schwartz")
    cases = [*zip([fixtures.cube()] * 3, np.eye(3)), (fixtures.cylinder_profile(), np.eye(3)[2])]
    cases += _drawn(rng, max(0, samples - len(cases)), lambda rng, hull, _: (
        hull(rng, int(rng.integers(4, 11))), unitize(rng.standard_normal(3))))
    return [_bound_row("schwartz-ratio-monotone", seed,
                       [q_direction(P, x) - ratio(P, x) for P, x in cases[:samples]], 1e-9)]


def suite_berwald(samples, seed):
    """Moment comparison on random concave profiles; equality only for tents."""
    rng = _rng(seed, "berwald")
    gaps = []
    false_equal = 0
    for _ in range(samples):
        R = fixtures.random_concave_profile(rng, n_nodes=int(rng.integers(3, 8)))
        p = float(rng.uniform(0.3, 2.0))
        q = p + float(rng.uniform(0.2, 2.0))
        res = berwald_check(R.s, R.f, p, q)
        gaps.append((res.rhs - res.lhs) / max(res.lhs, 1e-300))
        if res.equality and not _is_tent(R):
            false_equal += 1
    tent = fixtures.double_cone_profile()
    res = berwald_check(tent.s, tent.f, 1.0, 2.0)
    return [
        _bound_row("berwald-inequality", seed, gaps, 1e-12),
        check("berwald-equality-only-linear", false_equal == 0, value=false_equal,
              tolerance=0, detail=f"seed={seed}"),
        check("berwald-tent-equality", res.equality and abs(res.lhs - res.rhs) < 1e-10,
              value=res.lhs - res.rhs, tolerance=1e-10),
    ]


def _is_tent(R):
    half = R.s >= 0.0
    s, f = R.s[half], R.f[half]
    if f[-1] > 1e-10 * f.max():
        return False
    lin = f[0] * (1.0 - s / R.a)
    return bool(np.max(np.abs(f - lin)) <= 1e-10 * f.max())


def suite_zhang_petty(samples, seed):
    """20/27 <= V((Pi K)^polar) V(K)^2 <= 64/27, exact polar volumes, 1e-9 relative."""
    rng = _rng(seed, "zhang")
    lo_band, hi_band = 20.0 / 27.0, 64.0 / 27.0
    vals = []
    for _ in range(samples):
        Z = fixtures.random_zonotope(rng, int(rng.integers(3, 9)))
        # scale-invariant: each sample is measured as drawn
        vals.append(polar_volume(Z.pi_body) * Z.volume ** 2)
    lo_seen, witness = _worst(seed, vals, lowest=True)
    hi_seen = max(vals)
    ok = lo_seen >= lo_band * (1.0 - 1e-9) and hi_seen <= hi_band * (1.0 + 1e-9)
    # simplex attains the lower end
    tet = fixtures.tetrahedron()
    val = polar_volume(tet.pi_body) * tet.volume ** 2
    return [check("zhang-petty-band", ok, value=lo_seen, tolerance=lo_band,
                  detail=f"range [{lo_seen:.6g}, {hi_seen:.6g}] in "
                         f"[{lo_band:.6g}, {hi_band:.6g}] (1e-9); {witness}"),
            check("zhang-simplex-extremal", abs(val - lo_band) <= 1e-9 * lo_band,
                  value=val, tolerance=lo_band, detail="tetrahedron, expect 20/27")]


def _limit_row(row, name, worst, witness):
    """PASS where worst, the worst sample's invariant name, is within its limit (check_limit)."""
    ok = True
    try:
        check_limit(name, worst)
    except LimitError:
        ok = False
    return check(row, ok, value=worst, tolerance=LIMITS[name].constant, detail=witness)


def _stack_M(G):
    """Exact M of each zonotope of a stack G (b, n, 3); invariants takes what the stack cannot."""
    values, ok = stack_ratios(G)
    M = np.max(values, axis=-1)
    for i in np.flatnonzero(~ok):
        M[i] = invariants(GeneratorSet(G[i]), want=("M",)).M
    return M


def suite_theorem_1_1(samples, seed):
    """Zonoid upper bound: ratio <= 8 in every direction, cube attains 8.

    Each sample's M is exact, the largest ratio over its candidates, which
    hold its facet normals (functionals.invariants).
    """
    rng = _rng(seed, "thm11")
    M = np.empty(samples)
    # the samples are drawn in order, in chunks of about _CHUNK_BYTES at
    # about 600 bytes a sample (its generators, the tuples that carry them
    # and the stacks they go through), with one stack per generator count
    for sl, chunk in _draws(rng, samples,
                            lambda rng, _, gens: (gens(rng, int(rng.integers(3, 9))),), 600):
        gens = [g for g, in chunk]
        sizes = np.array([len(g) for g in gens])
        for n in np.unique(sizes):
            idx = np.flatnonzero(sizes == n)
            M[sl][idx] = _stack_M(np.stack([gens[i] for i in idx]))
    worst, witness = _worst(seed, M)
    cube_val = float(ratio(fixtures.cube_zonotope(), np.eye(3)).max())
    return [_limit_row("zonoid-ratio-upper", "M", worst, witness),
            check("cube-attains-8", abs(cube_val - LIMITS["M"].constant) <= 1e-9, value=cube_val,
                  tolerance=1e-9)]


def suite_theorem_1_2(samples, seed):
    """Symmetric lower bound: ratio >= 6 in every direction; octahedron attains 6.

    Each sample's m is invariants' at its defaults, as compute reads it:
    exact where the facet normals of Pi^2 K cost less than the refined grid,
    refined on the grid otherwise.  The samples are drawn in order, in
    chunks of about a hundred (10 kB a sample to _chunks: a sample read
    keeps about 5 kB, and a chunk's stacked pass peaks near 2.5 MB), and
    each chunk is read by one functionals.m_values call, its exact samples
    in one stack.
    """
    rng = _rng(seed, "thm12")
    m = np.empty(samples)
    for sl, chunk in _draws(rng, samples,
                            lambda rng, hull, _: (hull(rng, int(rng.integers(4, 13))),)):
        m[sl] = m_values([B for B, in chunk])
    worst, witness = _worst(seed, m, lowest=True)
    oct_val = float(ratio(fixtures.octahedron(), np.eye(3)).min())
    return [_limit_row("symmetric-ratio-lower", "m", worst, witness),
            check("octahedron-attains-6", abs(oct_val - LIMITS["m"].constant) <= 1e-9,
                  value=oct_val, tolerance=1e-9, direction=(0, 0, 1))]


def _sl_cases(samples, seed):
    """sl-invariance's (body, map) cases: four fixed ones, then seeded random ones."""
    rng = _rng(seed, "sl")
    bodies = [fixtures.cube_zonotope(), fixtures.octahedron()]
    maps = [np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.diag([2.0, 0.5, 1.0])]
    cases = [(b, T) for b in bodies for T in maps]
    cases += _drawn(rng, max(0, samples - len(cases)),
                    lambda rng, hull, _: (_random_body(rng, hull), _random_unimodular(rng)))
    return cases[:samples]


def suite_sl_invariance(samples, seed):
    """M and m are invariant under volume-preserving linear maps (to 1e-4)."""
    devs = [sl_invariance_check(B, T) for B, T in _sl_cases(samples, seed)]
    return [_bound_row("sl-invariance", seed, devs, 1e-4, label="case")]


def _random_unimodular(rng):
    """Random volume-preserving map with moderate condition number."""
    A = rng.standard_normal((3, 3)) * 0.4 + np.eye(3)
    d = np.linalg.det(A)
    if abs(d) < 0.1:
        return _random_unimodular(rng)
    if d < 0:
        A[0] = -A[0]
        d = -d
    return A / d ** (1.0 / 3.0)


def suite_class_reduction(samples, seed):
    """P(Pi K) <= P(K); the worst body's two values are logged."""
    rng = _rng(seed, "classred")
    gaps, notes = [], []
    for B, in _drawn(rng, samples, lambda rng, hull, _: (_random_body(rng, hull),)):
        pk = petty_value(B)
        ppk = petty_value(B.pi_body)
        gaps.append((ppk - pk) / max(pk, 1e-300))
        notes.append(f"P(K)={pk:.9g} P(PiK)={ppk:.9g}")
    return [_bound_row("class-reduction", seed, gaps, 1e-9, notes=notes)]


Suite = namedtuple("Suite", "run samples")

SUITES = {
    "ts-ratio": Suite(suite_ts_ratio, 100_000),
    "formula-coherence": Suite(suite_formula_coherence, 200),
    "fubini": Suite(suite_fubini, 200),
    "minkowski": Suite(suite_minkowski, 200),
    "steiner-monotone": Suite(suite_steiner_monotone, 500),
    "schwartz-monotone": Suite(suite_schwartz_monotone, 200),
    "berwald": Suite(suite_berwald, 1000),
    "zhang-petty": Suite(suite_zhang_petty, 100),
    "theorem-1-1": Suite(suite_theorem_1_1, 10_000),
    "theorem-1-2": Suite(suite_theorem_1_2, 1000),
    "sl-invariance": Suite(suite_sl_invariance, 12),
    "class-reduction": Suite(suite_class_reduction, 100),
}


def run_suite(name, samples=None, seed=42):
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    if samples is not None and samples < 1:
        raise InputError(f"samples must be at least 1, got {samples}")
    suite = SUITES[name]
    rows = suite.run(samples=suite.samples if samples is None else samples, seed=seed)
    summary = Row(f"suite:{name}",
                  status="FAIL" if any(r.status == "FAIL" for r in rows) else "PASS",
                  detail=f"{sum(r.status != 'FAIL' for r in rows)}/{len(rows)} checks passed")
    return rows + [summary]
