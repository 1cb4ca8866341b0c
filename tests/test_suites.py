"""Every registered verification suite runs green at reduced sample counts."""

import re
import tracemalloc

import numpy as np
import pytest

from pettylab import (GeneratorSet, fixtures, fibonacci_sphere, invariants,
                      q_direction, ratio, suites)
from pettylab.errors import InputError
from pettylab.geom import unit_rows, unitize
from pettylab.report import Row, any_failed, render_csv, render_json
from pettylab.suites import SUITES, _rng, _stack_M, _worst, run_suite
from pettylab.zonotope import pi2_count, pi2_rows, stack_ratios, triple_dets

SMALL = {
    "ts-ratio": 2000,
    "formula-coherence": 25,
    "fubini": 25,
    "minkowski": 25,
    "steiner-monotone": 25,
    "schwartz-monotone": 10,
    "berwald": 60,
    "zhang-petty": 4,
    "theorem-1-1": 150,
    "theorem-1-2": 60,
    "sl-invariance": 4,
    "class-reduction": 12,
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_runs_green(name):
    rows = run_suite(name, samples=SMALL[name], seed=42)
    assert rows, name
    assert rows[-1].name == f"suite:{name}"
    failed = [r for r in rows if r.status == "FAIL"]
    assert not failed, f"{name}: {[(r.name, r.value, r.detail) for r in failed]}"


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nope")


def test_worst_takes_first_sample_on_ties():
    assert _worst(5, [1.0, 3.0, 3.0, 2.0]) == (3.0, "seed=5 sample=1")
    assert _worst(5, [2.0, 1.0, 1.0], lowest=True) == (1.0, "seed=5 sample=1")
    assert _worst(5, [0.0, 0.0], label="case") == (0.0, "seed=5 case=0")
    assert _worst(5, [1.0, 2.0], notes=["a", "b"]) == (2.0, "seed=5 sample=1 b")


def test_worst_without_evaluated_samples():
    # -inf (+inf when lowest) marks a skipped sample; none names no witness
    assert _worst(5, [-np.inf, -np.inf]) == (-np.inf, "")
    assert _worst(5, [np.inf], lowest=True) == (np.inf, "")
    assert _worst(5, []) == (-np.inf, "")
    assert _worst(5, [-np.inf, -1.0]) == (-1.0, "seed=5 sample=1")


@pytest.mark.parametrize("samples", [0, -3])
def test_run_suite_needs_a_sample(samples):
    with pytest.raises(InputError):
        run_suite("theorem-1-1", samples=samples)


def _max_ratio(rng):
    Z = fixtures.random_zonotope(rng, int(rng.integers(3, 9)))
    return float(np.max(ratio(Z, Z.candidates)))


def _min_ratio(rng):
    # exact m: the least ratio at the unit crosses of the pairs of Pi^2 P's
    # generators where they are no more than the rows of the grid, the grid
    # of 1024 points, the axes and the candidates; else the grid's least
    P = fixtures.random_symmetric_polytope(rng, int(rng.integers(4, 13)))
    X = np.vstack([fibonacci_sphere(1024), np.eye(3), P.candidates])
    G = unit_rows(P.pi_body.gens)
    if pi2_count(len(G)) <= len(X):
        X = unit_rows(pi2_rows(G, triple_dets(G)))
    return float(np.min(ratio(P, X)))


def _schwartz_gap(rng):
    P = fixtures.random_symmetric_polytope(rng, int(rng.integers(4, 11)))
    x = unitize(rng.standard_normal(3))
    return q_direction(P, x) - ratio(P, x)


def _schwartz_equalities():
    # the cube's axes and the cylinder's axis, where q = ratio
    cube, cylinder = fixtures.cube(), fixtures.cylinder_profile()
    pairs = [(cube, x) for x in np.eye(3)] + [(cylinder, np.array([0.0, 0.0, 1.0]))]
    return [q_direction(B, x) - ratio(B, x) for B, x in pairs]


# suite -> (its stream's tag, one sample drawn from the stream and valued,
# whether the worst value is the lowest, the values of its fixed first samples)
REPLAYS = {
    "theorem-1-1": ("thm11", _max_ratio, False, list),
    "theorem-1-2": ("thm12", _min_ratio, True, list),
    "schwartz-monotone": ("schwartz", _schwartz_gap, False, _schwartz_equalities),
}


@pytest.mark.parametrize("name, samples", [("theorem-1-1", 40), ("theorem-1-2", 25),
                                           ("schwartz-monotone", 6)])
@pytest.mark.parametrize("seed", [1, 42])
def test_witness_replays_to_row_value(name, samples, seed):
    tag, sample, lowest, fixed = REPLAYS[name]
    row = run_suite(name, samples=samples, seed=seed)[0]
    witness = re.fullmatch(rf"seed={seed} sample=(\d+)", row.detail)
    assert witness, row.detail
    rng = _rng(seed, tag)
    vals = fixed()
    vals += [sample(rng) for _ in range(samples - len(vals))]
    k = int(witness.group(1))
    assert row.value == vals[k]
    # the witness is the first sample attaining the worst value
    assert k == (int(np.argmin(vals)) if lowest else int(np.argmax(vals)))


def test_schwartz_monotone_starts_at_equality():
    # q - ratio is 0 on the cube's axes and rounding on the cylinder's, so
    # the worst sample sits on the 1e-9 margin that pruning Q's grid rests on
    row = run_suite("schwartz-monotone", samples=4, seed=1)[0]
    vals = _schwartz_equalities()
    assert vals[:3] == [0.0, 0.0, 0.0] and abs(vals[3]) <= 1e-13
    assert (row.value, row.detail, row.status) == (0.0, "seed=1 sample=0", "PASS")


def test_render_csv_and_json():
    rows = [Row("x", value=1.23456789012345, tolerance=1e-9, status="PASS",
                direction=(0, 0, 1), detail="d")]
    csv = render_csv(rows, timestamp=False)
    assert csv.splitlines()[0] == "name,value,direction,tolerance,status,detail"
    assert "1.23456789012" in csv  # 12 significant digits
    doc = render_json(rows, timestamp=False)
    assert '"status": "PASS"' in doc
    assert not any_failed(rows)


def test_timestamp_header_toggle():
    rows = [Row("x", value=1.0, status="INFO")]
    assert render_csv(rows, timestamp=True).startswith("# generated ")
    assert not render_csv(rows, timestamp=False).startswith("#")


def _draw_zonotope(seed, sample):
    """The sample-th zonotope of theorem-1-1's stream at seed."""
    rng = _rng(seed, "thm11")
    for _ in range(sample + 1):
        Z = fixtures.random_zonotope(rng, int(rng.integers(3, 9)))
    return Z


@pytest.mark.parametrize("seed, sample", [(1, 954), (2, 853)])
def test_near_flat_witnesses_stay_within_8(seed, sample):
    # near-flat parallelepipeds: their grid M read 8.0000000335 and
    # 8.000000195 while the Pi^2 support and the volume rounded through
    # different determinants
    Z = _draw_zonotope(seed, sample)
    M = invariants(Z, grid=1024, refine=0, want=("M",)).M
    assert M <= 8.0 * (1.0 + 1e-9)


def test_theorem_1_1_evaluates_in_stacks(monkeypatch):
    # 300 samples fill less than one chunk: one stack_ratios call per
    # generator count, and the row value of per-body evaluation
    calls = []

    def counting(G):
        calls.append(len(G))
        return stack_ratios(G)

    monkeypatch.setattr(suites, "stack_ratios", counting)
    row = suites.suite_theorem_1_1(samples=300, seed=42)[0]
    rng = _rng(42, "thm11")
    gens = [fixtures.random_generators(rng, int(rng.integers(3, 9))) for _ in range(300)]
    assert len(calls) == len({len(g) for g in gens}) == 6
    assert sum(calls) == 300
    monkeypatch.undo()
    M = [invariants(GeneratorSet(g), want=("M",)).M for g in gens]
    assert row.value == max(M)
    for n in range(3, 9):
        G = np.stack([g for g in gens if len(g) == n])
        assert np.array_equal(_stack_M(G), [m for g, m in zip(gens, M) if len(g) == n])
        R = pi2_rows(G, triple_dets(G))
        for g, r in zip(G, R):
            assert np.array_equal(GeneratorSet(g).pi_body._crosses, r)


def test_theorem_1_1_memory_is_bounded():
    # the default 10,000 samples cross a chunk of the byte budget, and each
    # generator count's stack goes in chunks of members
    tracemalloc.start()
    try:
        suites.suite_theorem_1_1(10_000, 42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_stack_M_matches_per_body_values():
    # a stack of zonotopes of one size; member 2 has a zero cross product,
    # so the stack leaves it to the per-body path
    rng = np.random.default_rng(11)
    G = rng.standard_normal((5, 6, 3))
    G[2, 1] = 2.0 * G[2, 0]
    assert len(GeneratorSet(G[2])._crosses) == 14
    want = [invariants(GeneratorSet(g), want=("M",)).M for g in G]
    assert np.array_equal(_stack_M(G), want)


@pytest.mark.parametrize("kind", ["pair-rows", "walks"])
def test_stack_M_of_a_stack_it_takes_none_of(kind):
    # zonotopes with a zero cross or a zero Pi^2 row (four coplanar
    # generators), or of 16 generators, whose Pi^2 supports at their 136
    # candidates walk zonogons: every member goes to the per-body path and
    # gets its own value
    rng = np.random.default_rng(13)
    if kind == "walks":
        G = rng.standard_normal((2, 16, 3))
    else:
        G = rng.standard_normal((3, 6, 3))
        G[0, 1] = -2.0 * G[0, 0]
        G[1:, :4, 2] = 0.0
    values, ok = stack_ratios(G)
    assert not ok.any() and np.isnan(values).all()
    want = [invariants(GeneratorSet(g), want=("M",)).M for g in G]
    assert np.array_equal(_stack_M(G), want)
