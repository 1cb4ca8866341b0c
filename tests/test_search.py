"""Search harness: reproducibility, soundness, sharp-constant convergence."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pettylab import InputError, LimitError, optimize
from pettylab.search import OBJECTIVES, RECORDS, SearchRun, _step, evaluate_config

SHARP_TS = 4.0 / 3.0


class TestReproducibility:
    def test_identical_seeds_identical_runs(self):
        a = optimize("max-ts-ratio", n=4, restarts=2, iters=200, seed=11)
        b = optimize("max-ts-ratio", n=4, restarts=2, iters=200, seed=11)
        assert a.best_value == b.best_value
        assert np.array_equal(a.best_config, b.best_config)
        assert a.trace == b.trace

    def test_different_seeds_differ(self):
        a = optimize("max-ts-ratio", n=4, restarts=1, iters=150, seed=1)
        b = optimize("max-ts-ratio", n=4, restarts=1, iters=150, seed=2)
        assert a.trace != b.trace

    def test_roundtrip_revalidates(self, tmp_path):
        run = optimize("max-ts-ratio", n=4, restarts=1, iters=150, seed=3)
        path = tmp_path / "run.json"
        run.save(path)
        loaded = SearchRun.load(path)
        assert loaded.best_value == run.best_value

    def test_tampered_file_rejected(self, tmp_path):
        run = optimize("max-ts-ratio", n=4, restarts=1, iters=100, seed=3)
        path = tmp_path / "run.json"
        run.save(path)
        doc = json.loads(path.read_text())
        doc["best_value"] = 99.0
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError):
            SearchRun.load(path)

    def test_load_checks_the_limit(self, tmp_path, monkeypatch):
        # a stored run whose re-evaluated best crosses its theorem limit
        # reveals an evaluator bug, before any mismatch with the stored value
        from pettylab import search
        run = optimize("max-M-zonoid", n=3, restarts=1, iters=5, seed=3)
        path = tmp_path / "run.json"
        run.save(path)
        monkeypatch.setattr(search, "_evaluate", lambda obj, config, body: 8.0 + 2e-9)
        with pytest.raises(LimitError,
                           match=r"^max-M-zonoid: M = 8\.000000002 > 8 on a zonoid body"):
            SearchRun.load(path)

    @pytest.mark.parametrize("field, value, match", [
        ("objective", "nope", r"^objective: unknown 'nope'"),
        ("trace", None, r"^stored run: trace is missing"),
        ("best_config", [[1.0, 2.0]], r"^best_config: max-ts-ratio takes 5 .* \(1, 2\)"),
        ("best_value", "8", r"^best_value: expected a number, got '8'")])
    def test_malformed_file_rejected(self, tmp_path, field, value, match):
        # each ended in a KeyError, IndexError or TypeError traceback
        run = optimize("max-ts-ratio", n=4, restarts=1, iters=100, seed=3)
        path = tmp_path / "run.json"
        run.save(path)
        doc = json.loads(path.read_text())
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=match):
            SearchRun.load(path)

    def test_log_jsonl(self, tmp_path):
        run = optimize("max-ts-ratio", n=4, restarts=1, iters=100, seed=3)
        path = tmp_path / "run.jsonl"
        run.save_log(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(run.trace)
        first = json.loads(lines[0])
        assert set(first) == {"iteration", "value", "temperature"}


class TestSoundness:
    def test_trace_is_accepted_steps(self):
        run = optimize("min-m-symmetric", n=5, restarts=1, iters=120, seed=5)
        iters = [t[0] for t in run.trace]
        assert iters == sorted(iters)
        assert run.best_value >= 6.0 - 1e-9

    def test_m_floor_random_starts(self):
        for seed in (1, 2, 3):
            run = optimize("min-m-symmetric", n=6, restarts=1, iters=60, seed=seed)
            assert run.best_value >= 6.0 - 1e-9

    def test_M_ceiling_random_starts(self):
        for seed in (1, 2, 3):
            run = optimize("max-M-zonoid", n=5, restarts=1, iters=60, seed=seed)
            assert run.best_value <= 8.0 + 1e-9

    def test_evaluator_errors_propagate(self, monkeypatch):
        # only degenerate geometry (GeometryError) is skipped; any other error
        # from building a body is a bug and stops the search and the sampler
        from pettylab import fixtures, search

        def broken(*args, **kwargs):
            raise ZeroDivisionError("evaluator bug")
        monkeypatch.setattr(search, "convex_hull", broken)
        monkeypatch.setattr(fixtures, "convex_hull", broken)
        with pytest.raises(ZeroDivisionError):
            optimize("min-m-symmetric", n=4, restarts=1, iters=1)
        with pytest.raises(ZeroDivisionError):
            fixtures.random_symmetric_polytope(np.random.default_rng(0), 5)

    def test_degenerate_start_rejected(self):
        # near-flat rows are not swapped for random ones
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        rows[:, 2] *= 1e-9
        with pytest.raises(InputError, match="start"):
            optimize("min-m-symmetric", start=rows, iters=1, restarts=1, seed=1)

    @pytest.mark.parametrize("objective", ["min-m-symmetric", "max-M-zonoid"])
    def test_start_of_two_rows_rejected(self, objective):
        with pytest.raises(InputError, match="start"):
            optimize(objective, start=np.eye(3)[:2], iters=1, restarts=1, seed=1)

    @pytest.mark.parametrize("rows", [3, 4, 6])
    def test_tuple_start_needs_five_rows(self, rows):
        start = np.random.default_rng(rows).standard_normal((rows, 3))
        with pytest.raises(InputError, match="start"):
            optimize("max-ts-ratio", start=start, iters=1, restarts=1, seed=1)

    def test_budget_validation(self):
        with pytest.raises(InputError):
            optimize("max-M-zonoid", n=9)
        with pytest.raises(InputError):
            optimize("min-m-symmetric", n=40)
        with pytest.raises(InputError):
            optimize("max-M-zonoid", n=2)
        with pytest.raises(InputError):
            optimize("max-ts-ratio", iters=0)
        with pytest.raises(InputError):
            optimize("no-such-objective")


@pytest.mark.parametrize("objective", OBJECTIVES)
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_step_scores_the_rescaled_rows(objective, seed):
    # the invariants do not depend on the body's size, so scoring the body as
    # built gives the value of the rows a step returns, rescaled
    obj = RECORDS[objective]
    rng = np.random.default_rng(seed)
    rows = 5 if obj.build is None else int(rng.integers(obj.n_range[0], 9))
    state = _step(obj, 3.0 * rng.standard_normal((rows, 3)))
    assume(state is not None)
    config, value = state
    if obj.build is not None:
        assert obj.build(config).volume == pytest.approx(1.0, rel=1e-12)
    assert evaluate_config(objective, config) == pytest.approx(value, rel=1e-12)


class TestConvergence:
    def test_ts_ratio_reaches_sharp_constant(self):
        run = optimize("max-ts-ratio", n=4, restarts=2, iters=1500, seed=42)
        assert SHARP_TS - 1e-6 <= run.best_value <= SHARP_TS + 1e-12

    def test_M_search_reaches_cylinder_bound(self):
        run = optimize("max-M-zonoid", n=5, restarts=2, iters=1200, seed=5)
        assert 8.0 - 1e-3 <= run.best_value <= 8.0 + 1e-9
        assert run.diagnostics.get("near_equality")
        # cylinder-likeness: all but one generator collapse toward a plane
        assert run.diagnostics["coplanarity_gap"] < 0.05 \
            or run.diagnostics["parallel_pairs"] > 0

    def test_m_search_reaches_cone_bound(self):
        run = optimize("min-m-symmetric", n=12, restarts=2, iters=800, seed=7)
        assert 6.0 - 1e-9 <= run.best_value <= 6.0 + 5e-2

    def test_m_search_budget_ends_at_6(self, tmp_path):
        # the benchmark's budget; the grid of 192 rows ended at
        # 6.000014789755205, and near the octahedron Pi^2 of the hull has few
        # facet normals, which m reads exactly
        run = optimize("min-m-symmetric", n=6, restarts=1, iters=400, seed=42)
        assert abs(run.best_value - 6.0) <= 1e-12
        path = tmp_path / "run.json"
        run.save(path)
        assert SearchRun.load(path).best_value == run.best_value

    def test_evaluate_config_matches_report(self):
        run = optimize("max-ts-ratio", n=4, restarts=1, iters=200, seed=9)
        assert evaluate_config("max-ts-ratio", run.best_config) == run.best_value


class TestMinQ:
    def test_icosphere_start_near_ball_bound(self):
        run = optimize("min-Q-symmetric", restarts=1, iters=15, seed=2, start="icosphere")
        assert run.best_value <= (3 * np.pi ** 2 / 4) * 1.02
        assert run.best_value >= 6.0 - 1e-6
        assert "gap_to_ball_bound" in run.diagnostics

    def test_cube_start_decreasing_trace(self):
        run = optimize("min-Q-symmetric", restarts=1, iters=60, seed=3, start="cube")
        vals = [v for _, v, _ in run.trace]
        assert vals[0] == pytest.approx(8.0, abs=1e-5)
        assert run.best_value < vals[0]

    def test_random_start_floor(self):
        run = optimize("min-Q-symmetric", n=8, restarts=1, iters=30, seed=7)
        assert run.best_value >= 6.0 - 1e-6
        assert run.diagnostics["gap_to_ball_bound"] == run.best_value - 3 * np.pi ** 2 / 4

    def test_unknown_start(self):
        with pytest.raises(InputError):
            optimize("min-Q-symmetric", start="dodecahedron")


def _record_workers(monkeypatch):
    # optimize imports the pool class when it needs one, so patch its home
    import concurrent.futures
    seen = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            seen.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return seen


def test_workers_capped_at_restarts(monkeypatch):
    seen = _record_workers(monkeypatch)
    optimize("max-ts-ratio", n=4, restarts=1, iters=20, seed=1, threads=3)
    assert seen == [1]


def test_workers_capped_at_cpu_count(monkeypatch):
    seen = _record_workers(monkeypatch)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    optimize("max-ts-ratio", n=4, restarts=3, iters=20, seed=1, threads=64)
    assert seen == [2]


def test_parallel_restarts_match_serial():
    serial = optimize("max-ts-ratio", n=4, restarts=2, iters=150, seed=13, threads=1)
    parallel = optimize("max-ts-ratio", n=4, restarts=2, iters=150, seed=13, threads=2)
    assert serial.best_value == parallel.best_value
    assert np.array_equal(serial.best_config, parallel.best_config)


# --- the batched polish against the polish that scores one move a call ----------

def _sequential_polish(obj, config, value, rounds):
    """search._polish scoring one move a call with _step: the oracle of the batched polish.

    Returns the configuration, its value, and how many moves improved and
    how many were degenerate (None).
    """
    step = 0.02
    flat = config.reshape(-1)
    improving = degenerate = 0
    for _ in range(rounds):
        improved = False
        for k in range(flat.size):
            for sgn in (1.0, -1.0):
                cand = flat.copy()
                cand[k] += sgn * step
                state = _step(obj, cand.reshape(config.shape))
                if state is None:
                    degenerate += 1
                    continue
                cand_cfg, cv = state
                if obj.better(cv, value):
                    flat = cand_cfg.reshape(-1)
                    value = cv
                    improved = True
                    improving += 1
                    break
        if not improved:
            step *= 0.5
            if step < 1e-7:
                break
    return flat.reshape(config.shape), value, improving, degenerate


def _polish_calls(monkeypatch, objective, n, iters, seed):
    """The polish of each restart of one optimize run: its arguments and its result."""
    from pettylab import search
    calls = []
    polish = search._polish

    def recorded(obj, config, value, rounds=60):
        out = polish(obj, config, value, rounds=rounds)
        calls.append(((obj, config.copy(), value, rounds), out))
        return out

    monkeypatch.setattr(search, "_polish", recorded)
    optimize(objective, n=n, restarts=1, iters=iters, seed=seed)
    return calls


def _same_polish(args, out):
    config, value, improving, degenerate = _sequential_polish(*args)
    assert out[1] == value and out[0].tobytes() == config.tobytes()
    return improving, degenerate


@pytest.mark.parametrize("objective, n, iters", [
    ("max-M-zonoid", 5, 200), ("min-m-symmetric", 6, 150), ("min-Q-symmetric", 3, 100),
    ("max-ts-ratio", 5, 300)])
@pytest.mark.parametrize("seed", [1, 2, 42])
def test_batched_polish_is_the_sequential_one(monkeypatch, objective, n, iters, seed):
    # a round's moves scored in one batch (stacked zonotopes, ts_sums rows,
    # one stacked exact m over the hulls; min-Q-symmetric one move a call)
    # take the first improving move, as scoring them one at a time does
    [(args, out)] = _polish_calls(monkeypatch, objective, n, iters, seed)
    _same_polish(args, out)


def test_batched_polish_with_improving_moves(monkeypatch):
    # the benchmark's min-m-symmetric budget at seed 2 improves six times in
    # its polish, each time starting the next batch after the moved coordinate
    [(args, out)] = _polish_calls(monkeypatch, "min-m-symmetric", 6, 400, 2)
    assert _same_polish(args, out)[0] == 6


@pytest.mark.parametrize("objective, rows", [
    # the first move, +0.02 on the first coordinate, zeroes a tuple's row and
    # moves a zonotope's or a hull's first row into the plane of the others
    ("max-ts-ratio", [[-0.02, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0],
                      [0.3, 0.5, 0.8]]),
    ("max-M-zonoid", [[-0.02, 0.3, 0.2], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, -0.4]]),
    ("min-m-symmetric", [[-0.02, 0.3, 0.2], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, -0.4]])])
def test_batched_polish_skips_degenerate_moves(objective, rows):
    from pettylab.search import _polish
    # the rows as given, not rescaled, so that a step of 0.02 reaches the plane
    obj, config = RECORDS[objective], np.array(rows)
    value = _step(obj, config)[1]
    out = _polish(obj, config, value, rounds=12)
    assert _same_polish((obj, config, value, 12), out)[1] > 0


def _same_states(batch, each):
    assert len(batch) == len(each)
    for a, b in zip(batch, each):
        assert (a is None) == (b is None)
        if a is not None:
            assert a[0].tobytes() == b[0].tobytes() and a[1] == b[1]


@pytest.mark.parametrize("objective, n", [("min-m-symmetric", 6), ("min-Q-symmetric", 4)])
def test_steps_are_each_moves_step(monkeypatch, objective, n):
    # a batch of good moves, near-flat ones, coplanar ones qhull rejects (past
    # a near-flat test switched off) and one whose hull fails a check the
    # stack makes, so that the batch is built move by move
    from pettylab import geom, search
    obj, rng = RECORDS[objective], np.random.default_rng(8)
    good = [rng.standard_normal((n, 3)) for _ in range(5)]
    near_flat = good[0] * np.array([1.0, 1.0, 1e-4])
    coplanar = good[1] * np.array([1.0, 1.0, 0.0])
    configs = np.array(good[:2] + [near_flat] + good[2:4] + [coplanar] + good[4:])
    _same_states(search._steps(obj, configs), [_step(obj, c) for c in configs])
    monkeypatch.setattr(search, "_near_flat", lambda c: np.zeros(np.shape(c)[:-2], dtype=bool))
    _same_states(search._steps(obj, configs), [_step(obj, c) for c in configs])
    assert _step(obj, coplanar) is None
    # the hull of the fourth move fails its checks, alone or in a stack
    hull_chunk, bad = geom._hull_chunk, np.vstack([configs[3], -configs[3]])
    chunks = []

    def failing(triangles, symmetric):
        chunks.append(len(triangles))
        if any(np.array_equal(t.points, bad) for t in triangles):
            raise InputError("facet triple is affinely dependent")
        return hull_chunk(triangles, symmetric)

    monkeypatch.setattr(geom, "_hull_chunk", failing)
    batch = search._steps(obj, configs)
    assert chunks[0] == 6 and chunks[1:] == [1] * 6
    assert batch[3] is None and _step(obj, configs[3]) is None
    _same_states(batch, [_step(obj, c) for c in configs])


def test_q_batch_builds_no_pi_body(monkeypatch):
    # min-Q-symmetric reads no Pi K: a batch of its moves merges none
    from pettylab import search
    built = []
    polytopes = search.polytopes

    def recorded(triangles, symmetric=False):
        built.extend(polytopes(triangles, symmetric))
        return built[-len(triangles):]

    monkeypatch.setattr(search, "polytopes", recorded)
    configs = np.random.default_rng(9).standard_normal((4, 5, 3))
    states = search._steps(RECORDS["min-Q-symmetric"], configs)
    assert len(built) == 4 and all(s is not None for s in states)
    assert not any("pi_body" in B.__dict__ for B in built)
    search._steps(RECORDS["min-m-symmetric"], configs)
    assert all("pi_body" in B.__dict__ for B in built[4:])
