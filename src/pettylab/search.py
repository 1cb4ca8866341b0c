"""Stochastic extremal search over body configurations.

Simulated annealing with Gaussian perturbations, geometric cooling and
Metropolis acceptance; the step size adapts toward 30% acceptance.  Each
proposal's body is built once and scored as built (its invariants do not
depend on its size); the rows carried on are rescaled to volume 1, or to
unit length for a tuple.  Runs are deterministic for a fixed seed; restarts
use independent spawned seeds and merge best-of with ties broken by restart
index.

Objectives:
    max-M-zonoid     maximize M over zonotopes with n generators (sup = 8)
    min-m-symmetric  minimize m over symmetric hulls with n vertex pairs (inf = 6)
    min-Q-symmetric  minimize the slice invariant Q (conjectured inf 3*pi^2/4)
    max-ts-ratio     maximize t_sym/s_sym over 4-tuples plus a direction (sup = 4/3)
"""

import json
import math
import os
from collections import namedtuple

import numpy as np

from .errors import GeometryError, InputError
from .fixtures import icosphere, cube
from .functionals import BALL_RATIO, LIMITS, check_limit, invariants, ts_sums
from .geom import convex_hull
from .zonotope import GeneratorSet, _line_units


def _symmetric_hull(config):
    return convex_hull(np.vstack([config, -config]), symmetric=True)


class Objective(namedtuple("Objective", "name build n_range quantity grid maximize sharp "
                                        "conjectured hints starts", defaults=(None,) * 3 + ({},))):
    """One search objective: everything the search reads about it.

    build makes the body of a configuration of n rows (n in n_range for a
    random start); the body is scored as built, and the rows are rescaled
    to volume 1.  build is None for a 4-tuple plus a direction, whose five
    rows are scaled to unit length and scored so (n unused).
    quantity is the invariant extremized, or "t/s": M exactly, and m at
    invariants' default grid (grid None), exactly where Pi^2 K has no more
    facet normals than it has rows, else, like Q, unrefined over `grid`
    Fibonacci directions, the axes and the structured candidates.  The bodies
    set the class flag of their quantity's limit in functionals.LIMITS, and
    a best value beyond it is an evaluator bug (LimitError); one within
    1e-3 of `sharp` is flagged, with hints(config).
    A run reports its gap to `conjectured`, an unproven optimum, when set.
    starts maps the names of fixed starting bodies to their vertices.
    """

    @property
    def sign(self):
        return 1.0 if self.maximize else -1.0

    def better(self, a, b):
        """True when a beats b in the objective's sense."""
        return a > b if self.maximize else a < b


def _cylinder_hints(config):
    """How close a zonotope is to a cylinder: all but one generator coplanar."""
    g = np.asarray(config)
    un = g / np.linalg.norm(g, axis=1)[:, None]
    gram = np.abs(un @ un.T)
    np.fill_diagonal(gram, 0.0)
    sv = np.linalg.svd(g, compute_uv=False)
    return {"parallel_pairs": int(np.sum(gram > 1.0 - 1e-3) // 2),
            "coplanarity_gap": float(sv[2] / sv[0])}


RECORDS = {o.name: o for o in (
    Objective("max-M-zonoid", GeneratorSet, (3, 8), "M", None, True,
              sharp=LIMITS["M"].constant, hints=_cylinder_hints),
    Objective("min-m-symmetric", _symmetric_hull, (3, 20), "m", None, False,
              sharp=LIMITS["m"].constant),
    Objective("min-Q-symmetric", _symmetric_hull, (3, 20), "Q", 48, False, conjectured=BALL_RATIO,
              starts={"icosphere": lambda: icosphere(1).vertices, "cube": lambda: cube().vertices}),
    Objective("max-ts-ratio", None, (1, math.inf), "t/s", None, True, sharp=4.0 / 3.0),
)}

OBJECTIVES = tuple(RECORDS)


class SearchRun(namedtuple("SearchRun", "objective seed n restarts iters best_value "
                                        "best_config trace diagnostics")):
    """Outcome of one optimize() call: best configuration, value, trace."""

    def as_dict(self):
        return dict(self._asdict(), best_config=np.asarray(self.best_config).tolist(),
                    trace=[list(t) for t in self.trace])

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=1)
            fh.write("\n")

    def save_log(self, path):
        """JSON-lines trace: one accepted step per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for it, val, temp in self.trace:
                fh.write(json.dumps({"iteration": int(it), "value": float(val),
                                     "temperature": float(temp)}) + "\n")

    @classmethod
    def load(cls, path):
        """The run stored at path, re-evaluated; InputError naming a malformed field."""
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise InputError("stored run: expected a JSON object")
        for field in cls._fields[:-1]:
            if field not in doc:
                raise InputError(f"stored run: {field} is missing")
        if doc["objective"] not in RECORDS:
            raise InputError(f"objective: unknown {doc['objective']!r}; choose from {OBJECTIVES}")
        value = doc["best_value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputError(f"best_value: expected a number, got {value!r}")
        trace = doc["trace"]
        if not isinstance(trace, list) or not all(isinstance(t, list) and len(t) == 3
                                                  for t in trace):
            raise InputError("trace: expected a list of [iteration, value, temperature]")
        config = _config_rows(RECORDS[doc["objective"]], doc["best_config"], "best_config")
        run = cls(doc["objective"], doc["seed"], doc["n"], doc["restarts"], doc["iters"],
                  value, config, [tuple(t) for t in trace], doc.get("diagnostics", {}))
        check = evaluate_config(run.objective, run.best_config)
        check_limit(RECORDS[run.objective].quantity, check, label=f"{run.objective}: ")
        if not math.isclose(check, run.best_value, rel_tol=1e-9, abs_tol=1e-12):
            raise InputError(f"stored best value {run.best_value} does not re-evaluate "
                             f"({check})")
        return run


def evaluate_config(objective, config):
    """Objective value of a configuration (used on reload)."""
    obj = RECORDS[objective]
    config = np.asarray(config, dtype=float)
    return _evaluate(obj, config, obj.build(config) if obj.build else None)


def _evaluate(obj, config, body):
    """Objective value of a configuration whose body is already built.

    M is exact, and m wherever invariants reads it at the facet normals of
    Pi^2 K, as near the octahedron; otherwise m and Q are grid-only: the
    structured candidate directions contain the exact extremizers of
    cone-like configurations, so the sharp constants stay reachable without
    per-step refinement.
    """
    if obj.quantity == "t/s":
        s_tot, t_tot = ts_sums(config[:4], config[4])
        return t_tot / s_tot if s_tot > 0.0 else 0.0
    grid = {} if obj.grid is None else {"grid": obj.grid}
    return getattr(invariants(body, refine=0, want=(obj.quantity,), **grid), obj.quantity)


def _step(obj, config):
    """Rows rescaled to volume 1 (bodies) or unit norms (tuples), and their value.

    The body is built once and scored as built.  None for degenerate rows, and
    for near-flat ones: their determinant sums lose all significant digits, so
    no value computed there can be trusted against the sharp constants.
    """
    if obj.build is None:
        norms = np.linalg.norm(config, axis=1)
        if np.any(norms < 1e-12):
            return None
        config = config / norms[:, None]
        return config, _evaluate(obj, config, None)
    # determinant-sum round-off grows like eps / (sv ratio)^2; 1e-3 keeps it
    # below 1e-10 while every cylinder/cone-like optimum stays reachable
    sv = np.linalg.svd(config, compute_uv=False)
    if sv[2] <= 1e-3 * sv[0]:
        return None
    try:
        body = obj.build(config)
        v = body.volume
    except GeometryError:
        return None
    if not (v > 1e-9):
        return None
    return config / v ** (1.0 / 3.0), _evaluate(obj, config, body)


def _anneal(obj, n, iters, rng, start=None):
    t_start, t_end = 0.1, 1e-7
    state = None if start is None else _step(obj, start)
    if start is not None and state is None:
        raise InputError(f"start rows are degenerate for {obj.name}")
    while state is None:
        state = _step(obj, rng.standard_normal((n if obj.build else 5, 3)))
    config, value = state
    best_config, best_value = config.copy(), value
    trace = [(0, value, t_start)]
    sigma = 0.3
    accepted = 0
    window = 0
    cool = (t_end / t_start) ** (1.0 / max(iters, 1))
    temp = t_start
    for it in range(1, iters + 1):
        temp *= cool
        proposal = config.copy()
        row = rng.integers(0, proposal.shape[0])
        proposal[row] = proposal[row] + sigma * rng.standard_normal(3)
        state = _step(obj, proposal)
        window += 1
        if state is not None:
            proposal, cand = state
            gain = obj.sign * (cand - value)
            if gain >= 0.0 or rng.random() < math.exp(gain / temp):
                config, value = proposal, cand
                accepted += 1
                trace.append((it, value, temp))
                if obj.better(cand, best_value):
                    best_config, best_value = proposal.copy(), cand
        if window >= 50:
            rate = accepted / window
            sigma *= 1.25 if rate > 0.3 else 0.8
            sigma = min(max(sigma, 1e-6), 2.0)
            accepted = window = 0
    # the deterministic polish is reserved for convergence-grade budgets
    rounds = 0 if iters < 100 else max(8, min(60, iters // 10))
    best_config, best_value = _polish(obj, best_config, best_value, rounds=rounds)
    return best_config, best_value, trace


def _polish(obj, config, value, rounds=60):
    """Deterministic shrinking-step coordinate descent after annealing."""
    if rounds <= 0:
        return config, value
    step = 0.02
    flat = config.reshape(-1)
    for _ in range(rounds):
        improved = False
        for k in range(flat.size):
            for sgn in (1.0, -1.0):
                cand = flat.copy()
                cand[k] += sgn * step
                state = _step(obj, cand.reshape(config.shape))
                if state is None:
                    continue
                cand_cfg, cv = state
                if obj.better(cv, value):
                    flat = cand_cfg.reshape(-1)
                    value = cv
                    improved = True
                    break
        if not improved:
            step *= 0.5
            if step < 1e-7:
                break
    return flat.reshape(config.shape), value


def _run_restart(args):
    objective, n, iters, seed, ridx, start = args
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(ridx,)))
    return _anneal(RECORDS[objective], n, iters, rng, start=start)


def optimize(objective, n=5, restarts=2, iters=1500, seed=0, start=None, threads=1):
    """Simulated-annealing search; deterministic for a fixed seed.

    Restarts may run in parallel, on at most one worker per restart and per
    CPU (the process pool is imported only then); the merged result is
    independent of the worker count (best-of by value, ties to the lowest
    restart index).  A random start has n rows within the objective's
    n_range; `start` may instead be an (n, 3) array of rows (n >= 3 for a
    body, 5 for a tuple plus a direction; InputError otherwise, or if they
    are degenerate) or the name of one of the objective's fixed starts, whose
    antipodal vertex pairs become the rows.
    """
    if objective not in RECORDS:
        raise InputError(f"unknown objective {objective!r}; choose from {OBJECTIVES}")
    if iters < 1 or restarts < 1:
        raise InputError("iters and restarts must be positive")
    obj = RECORDS[objective]
    if isinstance(start, str):
        if start not in obj.starts:
            raise InputError(f"unknown start {start!r} for {objective}")
        start = _pair_representatives(obj.starts[start]())
    lo, hi = obj.n_range
    if start is not None:
        start = _config_rows(obj, start, "start")
        n = len(start)
    elif not lo <= n <= hi:
        raise InputError(f"{objective} searches take n from {lo} to {hi}")
    jobs = [(objective, n, iters, seed, r, start if r == 0 else None)
            for r in range(restarts)]
    if threads > 1:
        # imported here: the process pool takes ~0.05 s to load, and serial runs never need it
        from concurrent.futures import ProcessPoolExecutor
        workers = min(threads, restarts, os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_restart, jobs))
    else:
        results = [_run_restart(j) for j in jobs]
    # the first best restart wins ties
    best_config, best_value, trace = (max if obj.maximize else min)(results, key=lambda r: r[1])
    check_limit(obj.quantity, best_value, label=f"{obj.name}: ")
    diagnostics = _diagnose(obj, best_config, best_value)
    return SearchRun(objective, seed, n, restarts, iters, float(best_value),
                     best_config, trace, diagnostics)


def _config_rows(obj, rows, field):
    """rows as the float array of a configuration of obj; InputError naming field if not one.

    A body takes at least 3 finite rows of 3, a tuple plus a direction 5.
    """
    try:
        rows = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"{field}: expected rows of 3 numbers") from None
    n = len(rows) if rows.ndim == 2 and rows.shape[1] == 3 else 0
    if not (n >= 3 if obj.build else n == 5) or not np.all(np.isfinite(rows)):
        raise InputError(f"{field}: {obj.name} takes {'at least 3' if obj.build else 5} "
                         f"finite rows of 3, got shape {rows.shape}")
    return rows


def _diagnose(obj, config, value):
    """Equality-case hints near a sharp constant; the gap to a conjectured one."""
    diag = {}
    if obj.sharp is not None and obj.better(value, obj.sharp - obj.sign * 1e-3):
        diag["near_equality"] = True
        if obj.hints:
            diag.update(obj.hints(config))
    if obj.conjectured is not None:
        diag["gap_to_ball_bound"] = float(value - obj.conjectured)
    return diag


def _pair_representatives(vertices):
    """One member of each antipodal vertex pair, canonical sign, in order of first appearance."""
    units = _line_units(np.asarray(vertices, dtype=float))
    _, first = np.unique(units, axis=0, return_index=True)
    return units[np.sort(first)]
