"""The three workloads: their inputs, their operations and the output checks.

An operation is one pettylab command line, run in-process through
`pettylab.cli.main`.  Bodies the benchmark generates are written to files
first, so the program only ever sees body files.  Each operation carries a
check that reads the command's output and tests it against the closed forms
and the reference computations in `oracles.py`.
"""

import json
import math
import os

import numpy as np

import oracles
from tracer import SUITE_NAMES

# verify and search run at the program's documented default seed; --seed of
# the benchmark only shapes the bodies it generates
PROGRAM_SEED = 42
REL = 1e-9
EIGHT = 8.0
SIX = 6.0


class CheckFailed(Exception):
    pass


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(a, b, rel=REL):
    return abs(a - b) <= rel * max(abs(a), abs(b))


class Op:
    """One command line with the check of its output."""

    def __init__(self, kind, label, argv, check, out_path=None, known_fault=None):
        self.kind = kind
        self.label = label
        self.argv = argv
        self.check = check
        self.out_path = out_path
        # a fault of the program that makes this operation fail on every run
        self.known_fault = known_fault

    def output(self, stdout):
        """What the check reads: the written file if there is one, else stdout."""
        if self.out_path is None:
            return stdout
        with open(self.out_path, "r", encoding="utf-8") as fh:
            return fh.read()

    def problem(self, text):
        """None when the output passes the check, else what is wrong with it."""
        try:
            self.check(text)
        except (CheckFailed, KeyError, ValueError, TypeError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None


# --- inputs -----------------------------------------------------------------------

def _rng(seed, tag):
    return np.random.default_rng(np.random.SeedSequence([seed, sum(map(ord, tag))]))


def sphere_points(rng, n):
    p = rng.standard_normal((n, 3))
    return p / np.linalg.norm(p, axis=1)[:, None]


def write_body(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def symmetric_hull_doc(points):
    return {"kind": "polytope", "vertices": np.vstack([points, -points]).tolist(),
            "symmetric": True}


def load_doc(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# --- reading command output ---------------------------------------------------------

def rows_of(text):
    return {r["name"]: r for r in json.loads(text)["rows"]}


# --- checks on `compute` --------------------------------------------------------------

CLOSED_FORMS = {
    # fixture: {invariant: value}
    "cube": {"P": 8.0, "M": 8.0, "m": 8.0},
    "cube-zonotope": {"P": 8.0, "M": 8.0, "m": 8.0},
    "octahedron": {"P": 9.0, "m": 6.0},
    "tetrahedron": {"P": 18.0},
    "ball": {"P": oracles.BALL_VALUE, "M": oracles.BALL_VALUE,
             "m": oracles.BALL_VALUE, "Q": oracles.BALL_VALUE},
    "cylinder": {"M": 8.0},
    "double-cone": {"m": 6.0},
}


class Body:
    """The benchmark's own view of a body file."""

    def __init__(self, name, path):
        self.name = name
        self.doc = load_doc(path)
        self.kind = self.doc["kind"]
        self.symmetric = self.kind != "polytope" or bool(self.doc.get("symmetric"))
        self._hull = None
        self._zvol = None

    @property
    def hull(self):
        if self._hull is None:
            self._hull = oracles.Hull(self.doc["vertices"])
        return self._hull

    @property
    def gens(self):
        return np.asarray(self.doc["generators"], dtype=float)

    def ratio(self, x):
        if self.kind == "polytope":
            return oracles.ratio_polytope(self.hull, x)
        if self._zvol is None:
            self._zvol = oracles.zonotope_volume(self.gens)
        return oracles.ratio_zonotope(self.gens, x, self._zvol)

    def petty(self):
        if self.kind == "polytope":
            gens, vol = self.hull.projection_generators(), self.hull.volume
        else:
            gens = oracles.zonotope_projection_generators(self.gens)
            vol = oracles.zonotope_volume(self.gens)
        return oracles.zonotope_volume(gens) / vol ** 2


def check_compute(body, wanted):
    def check(text):
        rows = rows_of(text)
        val = {k: float(rows[k]["value"]) for k in wanted}
        for k, v in val.items():
            expect(math.isfinite(v), f"{body.name}: {k} = {v} is not finite")
        for k, v in CLOSED_FORMS.get(body.name, {}).items():
            if k in val:
                expect(close(val[k], v), f"{body.name}: {k} = {val[k]!r}, closed form {v!r}")
        if body.name == "icosphere3":
            expect(abs(val["P"] / oracles.BALL_VALUE - 1.0) <= 5e-3,
                   f"icosphere3: P = {val['P']!r} not within 0.5% of 3pi^2/4")
        P = val.get("P")
        if P is not None:
            expect(P >= SIX, f"{body.name}: P = {P!r} < 6")
            if body.kind in ("polytope", "zonotope"):
                ref = body.petty()
                expect(close(P, ref), f"{body.name}: P = {P!r}, V(Pi K)/V(K)^2 = {ref!r}")
        if "M" in val and "m" in val and P is not None:
            expect(val["m"] <= P * (1 + REL) and P <= val["M"] * (1 + REL),
                   f"{body.name}: m <= P <= M fails: {val['m']!r}, {P!r}, {val['M']!r}")
        if "M" in val and body.kind == "zonotope":
            expect(val["M"] <= EIGHT * (1 + REL), f"{body.name}: M = {val['M']!r} > 8")
        if "m" in val and body.symmetric:
            expect(val["m"] >= SIX * (1 - REL), f"{body.name}: m = {val['m']!r} < 6")
        if body.kind in ("polytope", "zonotope"):
            for k in ("M", "m"):
                if k in val:
                    x = np.asarray(rows[k]["direction"], dtype=float)
                    ref = body.ratio(x)
                    expect(close(val[k], ref),
                           f"{body.name}: {k} = {val[k]!r}, ratio at {k}_dir = {ref!r}")
        if "Q" in val:
            check_q(body, val["Q"], P, rows["Q"]["direction"])
    return check


def q_tolerance(q, err):
    """The oracle's own quadrature error plus the 1e-9 used for every ratio."""
    return err + REL * q


def check_q(body, Q, P, q_dir):
    expect(Q >= SIX * (1 - REL), f"{body.name}: Q = {Q!r} < 6")
    if P is not None:
        expect(Q <= P + 1e-6, f"{body.name}: Q = {Q!r} > P + 1e-6 = {P + 1e-6!r}")
    if body.kind != "polytope":
        return
    for axis in np.eye(3):
        q, err = oracles.q_polytope(body.hull, axis)
        expect(Q >= q - q_tolerance(q, err), f"{body.name}: Q = {Q!r} < q(axis {axis}) = {q!r}")
    q, err = oracles.q_polytope(body.hull, q_dir)
    tol = q_tolerance(q, err)
    expect(abs(Q - q) <= tol,
           f"{body.name}: Q = {Q!r}, q at Q_dir = {q!r} (tolerance {tol:.3g})")


# --- checks on `symmetrize`, `verify` and `search` ------------------------------------

def check_schwartz(body, direction):
    def check(text):
        doc = json.loads(text)
        expect(doc["kind"] == "revolution", "schwartz output is not a revolution body")
        prof = np.asarray(doc["profile"], dtype=float)
        vol, axis_ratio = oracles.revolution_volume_and_axis_ratio(prof[:, 0], prof[:, 1])
        hull_vol = body.hull.volume
        expect(abs(vol - hull_vol) <= 1e-3 * hull_vol,
               f"{body.name}: Schwartz volume {vol!r}, hull volume {hull_vol!r}")
        before = body.ratio(direction)
        expect(axis_ratio <= before + 1e-6,
               f"{body.name}: Schwartz axis ratio {axis_ratio!r} > ratio {before!r}")
    return check


def check_verify(suite):
    def check(text):
        rows = json.loads(text)["rows"]
        bad = [r["name"] for r in rows if r["status"] != "PASS"]
        expect(rows and not bad, f"verify {suite}: rows not PASS: {bad}")
    return check


def _hull_of_pairs(config):
    return oracles.Hull(np.vstack([config, -config]))


def check_search(objective):
    def check(text):
        doc = json.loads(text)
        best = float(doc["best_value"])
        cfg = np.asarray(doc["best_config"], dtype=float)
        if objective == "max-M-zonoid":
            expect(best <= EIGHT * (1 + REL), f"max-M-zonoid: best {best!r} > 8")
            vol = oracles.zonotope_volume(cfg)
            for c in oracles.zonotope_projection_generators(cfg):
                r = oracles.ratio_zonotope(cfg, c, vol)
                expect(best >= r * (1 - REL),
                       f"max-M-zonoid: best {best!r} < ratio {r!r} at a pair cross")
        elif objective == "min-m-symmetric":
            expect(best >= SIX * (1 - REL), f"min-m-symmetric: best {best!r} < 6")
            hull = _hull_of_pairs(cfg)
            for n in hull.facet_normals():
                r = oracles.ratio_polytope(hull, n)
                expect(best <= r * (1 + REL),
                       f"min-m-symmetric: best {best!r} > ratio {r!r} at a facet normal")
        elif objective == "min-Q-symmetric":
            expect(best >= SIX * (1 - REL), f"min-Q-symmetric: best {best!r} < 6")
            hull = _hull_of_pairs(cfg)
            for axis in np.eye(3):
                q, err = oracles.q_polytope(hull, axis)
                expect(best >= q - q_tolerance(q, err),
                       f"min-Q-symmetric: best {best!r} < q(axis) {q!r}")
        elif objective == "max-ts-ratio":
            expect(best <= 4.0 / 3.0 + 1e-12, f"max-ts-ratio: best {best!r} > 4/3")
            ref = oracles.ts_ratio(cfg[:4], cfg[4])
            expect(abs(best - ref) <= 1e-12, f"max-ts-ratio: best {best!r}, t/s {ref!r}")
    return check


# --- the workloads ------------------------------------------------------------------------

def compute_op(name, path, invariants, extra=(), known_fault=None):
    body = Body(name, path)
    argv = ["--no-timestamp", "compute", path, "--invariants", invariants,
            "--format", "json", *extra]
    return Op("compute", f"compute {name} {invariants}", argv,
              check_compute(body, invariants.split(",")), known_fault=known_fault)


def exact_pmm(seed, work, fixtures, smoke=False):
    fx = lambda n: os.path.join(fixtures, f"{n}.json")
    names = (["cube", "octahedron"] if smoke else
             ["cube", "cube-zonotope", "octahedron", "icosphere1", "icosphere2",
              "cylinder", "double-cone"])
    ops = [compute_op(n, fx(n), "P,M,m") for n in names]
    # the ball's Q is analytic: no slice code runs
    ops.append(compute_op("ball", fx("ball"), "P,M,m,Q"))
    for n in ([] if smoke else ["tetrahedron", "icosphere3"]):
        ops.append(compute_op(n, fx(n), "P"))
    rng = _rng(seed, "exact-pmm")
    for n in ([6] if smoke else [8, 10, 12, 14, 16, 20, 24]):
        path = write_body(os.path.join(work, f"zonotope{n}.json"),
                          {"kind": "zonotope", "generators": rng.standard_normal((n, 3)).tolist()})
        ops.append(compute_op(f"zonotope{n}", path, "P,M,m"))
    for n in ([8] if smoke else [20, 30, 40, 60, 100]):
        path = write_body(os.path.join(work, f"hull{n}.json"),
                          symmetric_hull_doc(sphere_points(rng, n)))
        ops.append(compute_op(f"hull{n}", path, "P,M,m"))
    return ops


# slice_quadratics fits each quadratic piece through three samples; on
# icosphere1 refinement drives Q_dir to x ~ 1e-7, where pieces are that wide
# and the fitted Q exceeds the sliced q at Q_dir by 2e-7 relative.
ICOSPHERE1_Q_FAULT = "slice_quadratics on nearly coincident vertex heights"


def slice_q(seed, work, fixtures, smoke=False):
    extra = ("--grid", "64", "--refine", "5") if smoke else ()
    fx = lambda n: os.path.join(fixtures, f"{n}.json")
    fixed = [compute_op("octahedron", fx("octahedron"), "P,Q", extra)]
    if not smoke:
        fixed.append(compute_op("icosphere1", fx("icosphere1"), "P,Q",
                                known_fault=ICOSPHERE1_Q_FAULT))
    # small hulls reach the slice code through short Q searches (grid 48 per
    # step); seven of one size keep the median operation steady
    searches = [search_op(work, "min-Q-symmetric", 5, 1, 3 if smoke else 10,
                          seed=PROGRAM_SEED + k) for k in range(1 if smoke else 7)]
    rng = _rng(seed, "slice-q")
    schwartz = []
    for n in ([6] if smoke else [8, 12]):
        name = f"hull{n}"
        path = write_body(os.path.join(work, f"{name}.json"),
                          symmetric_hull_doc(sphere_points(rng, n)))
        d = oracles.unit(rng.standard_normal(3))
        out = os.path.join(work, f"{name}-schwartz.json")
        argv = ["--no-timestamp", "symmetrize", path, "--mode", "schwartz",
                "--direction=" + ",".join(repr(float(c)) for c in d), "--out", out]
        schwartz.append(Op("symmetrize", f"symmetrize {name} schwartz", argv,
                           check_schwartz(Body(name, path), d), out_path=out))
    # spread the searches over the round, so that the median operation is
    # timed at several moments of it
    return (searches[:1] + fixed[:1] + searches[1:3] + schwartz[:1] + fixed[1:]
            + searches[3:5] + schwartz[1:] + searches[5:])


SEARCH_BUDGETS = {
    # objective: (n, restarts, iters)
    "max-M-zonoid": (5, 2, 200),
    "min-m-symmetric": (6, 1, 400),
    "max-ts-ratio": (5, 2, 1500),
}


def search_op(work, objective, n, restarts, iters, seed=PROGRAM_SEED):
    out = os.path.join(work, f"search-{objective}-n{n}-seed{seed}.json")
    argv = ["--no-timestamp", "search", objective, "--n", str(n), "--restarts",
            str(restarts), "--iters", str(iters), "--seed", str(seed), "--out", out]
    return Op("search", f"search {objective} n={n} seed={seed}", argv,
              check_search(objective), out_path=out)


def small_many(seed, work, fixtures, smoke=False):
    ops = []
    for suite in (["berwald", "ts-ratio"] if smoke else SUITE_NAMES):
        argv = ["--no-timestamp", "verify", suite, "--seed", str(PROGRAM_SEED),
                "--format", "json"]
        if smoke:
            argv += ["--samples", "20"]
        ops.append(Op("verify", f"verify {suite}", argv, check_verify(suite)))
    for objective, (n, restarts, iters) in SEARCH_BUDGETS.items():
        ops.append(search_op(work, objective, n, restarts, 20 if smoke else iters))
    return ops


WORKLOADS = {
    "exact-pmm": exact_pmm,
    "slice-q": slice_q,
    "small-many": small_many,
}
