"""Command-line interface.

    pettylab compute BODY.json --invariants P,M,m,Q [--grid N] [--refine K]
    pettylab verify SUITE [--samples N] [--seed S]
    pettylab search OBJECTIVE [--n N] [--restarts R] [--iters I] [--out run.json]
    pettylab symmetrize BODY.json --mode steiner|schwartz [--direction X,Y,Z]
                        [--track-ratio X,Y,Z] [--steps N (steiner)]
    pettylab fixtures --out DIR

Exit codes: 0 success, 2 usage/parse error or an output file that cannot be
written, 3 invalid body, 4 suite failure, or a search result or computed
invariant beyond a theorem limit.
The environment variable PETTYLAB_SEED supplies the default seed; all
numeric output uses 12 significant digits.  Output is byte-identical for
identical command lines apart from the timestamp header (suppress with
--no-timestamp).
"""

import argparse
import contextlib
import math
import os
import re
import sys

import numpy as np

from . import fixtures as fixture_mod
from .bodies import Ball, load_body, save_body
from .errors import BodyFileError, GeometryError, LimitError
from .functionals import (GRID, INVARIANTS, LIMITS, REFINE, check_limit, invariants,
                          q_direction, ratio)
from .geom import Polytope, unitize
from .report import Row, any_failed, fmt, render_csv, render_json
from .search import OBJECTIVES, RECORDS, optimize
from .suites import SUITES, run_suite
from .symmetrize import schwartz, steiner, steiner_rounding_run

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BODY = 3
EXIT_SUITE = 4

# Largest --grid.  Supports and shadows run in chunks of directions, so at
# this size icosphere3's m peaks near 78 MB and takes about 0.7 s (one core,
# in-process), but the time and the grid's own arrays grow with the grid.
GRID_MAX = 100_000

# Largest --samples.  The suites draw their samples up front; at this size
# verify ts-ratio peaks near 0.22 GB, and larger counts exhaust memory.
SAMPLES_MAX = 1_000_000

# Options that take a direction X,Y,Z.  argparse reads a value that starts
# like a negative number (-1,0,0 or -.5,1,0) as an option; _join_vectors
# attaches it to its option name first.
VECTOR_OPTIONS = ("--direction", "--track-ratio")
_NEGATIVE = re.compile(r"-[\d.]")


def _int_in(lo, hi=math.inf):
    """argparse type: an integer from lo to hi."""
    def parse(text):
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"must be from {lo} to {hi}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its "invalid value" message
    return parse


def build_parser():
    top = argparse.ArgumentParser(prog="pettylab",
                                  description="projection-body calculus toolkit")
    top.add_argument("--no-timestamp", action="store_true",
                     help="suppress the timestamp header in reports")
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="invariants of a body file")
    c.add_argument("body")
    c.add_argument("--invariants", default=",".join(INVARIANTS))
    c.add_argument("--grid", type=_int_in(2, GRID_MAX), default=GRID,
                   help="sphere grid of Q, and of m where it is not exact (P and M are)")
    c.add_argument("--refine", type=_int_in(0), default=REFINE,
                   help="Nelder-Mead steps polishing the grid values (0: none)")
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.add_argument("--out")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(SUITES), metavar="suite",
                   help=f"one of: {', '.join(sorted(SUITES))}")
    v.add_argument("--samples", type=_int_in(1, SAMPLES_MAX), default=None)
    v.add_argument("--seed", type=_int_in(0), default=None)
    v.add_argument("--format", choices=("csv", "json"), default="csv")
    v.add_argument("--out")

    s = sub.add_parser("search", help="stochastic extremal search")
    s.add_argument("objective", choices=OBJECTIVES, metavar="objective",
                   help=f"one of: {', '.join(OBJECTIVES)}")
    s.add_argument("--n", type=int, default=5)
    s.add_argument("--restarts", type=_int_in(1), default=2)
    s.add_argument("--iters", type=_int_in(1), default=1500)
    s.add_argument("--seed", type=_int_in(0), default=None)
    s.add_argument("--threads", type=_int_in(1), default=1)
    s.add_argument("--start", default=None,
                   help="named start for min-Q-symmetric (icosphere, cube)")
    s.add_argument("--out", help="write the SearchRun JSON document here")
    s.add_argument("--log", help="write the accepted-step JSONL trace here")

    y = sub.add_parser("symmetrize", help="Steiner or Schwartz symmetrization")
    y.add_argument("body")
    y.add_argument("--mode", choices=("steiner", "schwartz"), required=True)
    y.add_argument("--direction", default=None,
                   help="symmetrization direction (default 0,0,1)")
    y.add_argument("--steps", type=_int_in(1), default=1,
                   help="random-direction Steiner iterations when > 1 (no --direction)")
    y.add_argument("--seed", type=_int_in(0), default=None)
    y.add_argument("--track-ratio", default=None,
                   help="direction for the before/after ratio pair")
    y.add_argument("--out")

    f = sub.add_parser("fixtures", help="write the bundled fixture bodies")
    f.add_argument("--out", default="fixtures")
    return top


def _check_args(parser, args):
    """Checks that need the environment or a second argument; errors exit 2."""
    if "seed" in vars(args) and args.seed is None:
        try:
            args.seed = _int_in(0)(os.environ.get("PETTYLAB_SEED", "42"))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"PETTYLAB_SEED: {exc}")
    if args.command == "compute":
        wanted = tuple(p.strip() for p in args.invariants.split(",") if p.strip())
        bad = [w for w in wanted if w not in INVARIANTS]
        if not wanted or bad or len(set(wanted)) < len(wanted):
            parser.error(f"argument --invariants: must list distinct names from "
                         f"{','.join(INVARIANTS)}, got {args.invariants!r}")
        args.invariants = wanted
    if args.command == "symmetrize":
        if args.steps > 1 and args.mode == "schwartz":
            parser.error("argument --steps: only --mode steiner iterates, "
                         f"got {args.steps} with --mode schwartz")
        if args.steps > 1 and args.direction is not None:
            parser.error("argument --direction: iterated Steiner steps draw their "
                         "own directions; drop --direction or --steps")
        # parsed here, so that a bad direction exits before the body file is read
        args.axis = _parse_direction(parser, "--direction",
                                     "0,0,1" if args.direction is None else args.direction)
        args.track = (_parse_direction(parser, "--track-ratio", args.track_ratio)
                      if args.track_ratio else None)
    if args.command == "search":
        lo, hi = RECORDS[args.objective].n_range
        if not lo <= args.n <= hi:
            parser.error(f"argument --n: must be from {lo} to {hi} for {args.objective}, "
                         f"got {args.n}")
        starts = RECORDS[args.objective].starts
        if args.start is not None and args.start not in starts:
            parser.error(f"argument --start: {args.objective} takes "
                         f"{', '.join(starts) or 'no named start'}, got {args.start!r}")


def _parse_direction(parser, option, text):
    """The unit vector of an X,Y,Z option value; a bad one exits 2 naming the option."""
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    try:
        if len(parts) != 3:
            raise ValueError(f"expected 3 components, got {len(parts)}")
        return unitize(np.array([float(p) for p in parts]))
    except ValueError as exc:
        parser.error(f"argument {option}: bad direction {text!r}: {exc}")


def _join_vectors(argv):
    """`--direction -1,0,0` as `--direction=-1,0,0`, for every vector option.

    Any unambiguous prefix of the option name counts, as argparse allows.
    """
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        if (_NEGATIVE.match(arg) and len(prev) > 2
                and any(name.startswith(prev) for name in VECTOR_OPTIONS)):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


@contextlib.contextmanager
def _writing(path):
    """A file that cannot be written to path is a usage error (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise BodyFileError(f"cannot write {path}: {exc}") from exc


def _emit(rows, args, out=None):
    render = render_json if getattr(args, "format", "csv") == "json" else render_csv
    text = render(rows, timestamp=not args.no_timestamp)
    if out:
        with _writing(out), open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def cmd_compute(args):
    body = load_body(args.body)
    rep = invariants(body, grid=args.grid, refine=args.refine, want=args.invariants)
    for name in args.invariants:
        check_limit(name, getattr(rep, name), body)
    # where each value came from: the ball's are closed forms
    searched = f"grid={args.grid} refine={args.refine}"
    if isinstance(body, Ball):
        where = dict.fromkeys(INVARIANTS, "closed form")
    else:
        where = {"P": "exact", "M": "max over facet normals", "Q": searched,
                 "m": ("min over facet normals of Pi^2 K" if rep.m_source == "pi2 normals"
                       else searched)}
    rows = [Row(name, value=getattr(rep, name), status="INFO",
                direction=getattr(rep, f"{name}_dir", None), detail=where[name])
            for name in args.invariants]
    sharp = LIMITS["m"].constant
    if rep.m is not None and abs(rep.m - sharp) <= 1e-6:
        rows.append(Row("near-lower-equality", value=rep.m, status="INFO",
                        detail=f"ratio within 1e-6 of the sharp bound {fmt(sharp)}"))
    _emit(rows, args, args.out)
    return EXIT_OK


def cmd_verify(args):
    rows = run_suite(args.suite, samples=args.samples, seed=args.seed)
    _emit(rows, args, args.out)
    return EXIT_SUITE if any_failed(rows) else EXIT_OK


def _check_writable(path):
    """Exit 2 now, not after the run, when path cannot be opened for writing.

    An existing file is left as it is; a file the check creates is removed.
    """
    existed = os.path.exists(path)
    with _writing(path):
        open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(path)


def cmd_search(args):
    for path in (args.out, args.log):
        if path:
            _check_writable(path)
    run = optimize(args.objective, n=args.n, restarts=args.restarts, iters=args.iters,
                   seed=args.seed, start=args.start, threads=args.threads)
    if args.out:
        with _writing(args.out):
            run.save(args.out)
    if args.log:
        with _writing(args.log):
            run.save_log(args.log)
    extras = ""
    if run.diagnostics.get("near_equality"):
        if "parallel_pairs" in run.diagnostics:
            extras = (f", parallelism={run.diagnostics['parallel_pairs']}"
                      f", coplanarity-gap={fmt(run.diagnostics['coplanarity_gap'])}")
        else:
            extras = ", near sharp constant"
    if "gap_to_ball_bound" in run.diagnostics:
        extras += f", gap-to-ball-bound={fmt(run.diagnostics['gap_to_ball_bound'])}"
    print(f"{run.objective}: best {fmt(run.best_value)} "
          f"(seed={run.seed}, restarts={run.restarts}, iters={run.iters}{extras})")
    return EXIT_OK


def cmd_symmetrize(args):
    body = load_body(args.body)
    if not isinstance(body, Polytope):
        raise GeometryError("symmetrization needs a polytope body file")
    direction, track = args.axis, args.track
    v_before = body.volume
    if track is not None:
        # after Schwartz symmetrization about x the ratio is q(body, x)
        rb, ra = ratio(body, track), q_direction(body, track)
        print(f"ratio before {fmt(rb)} after {fmt(ra)} (direction {args.track_ratio})")
    if args.mode == "schwartz":
        out_body = schwartz(body, direction)
    elif args.steps > 1:
        out_body, trace = steiner_rounding_run(body, args.steps, args.seed)
        print(f"roundness {fmt(trace[0])} -> {fmt(trace[-1])} over {args.steps} steps")
    else:
        out_body = steiner(body, direction)
    print(f"volume before {fmt(v_before)} after {fmt(out_body.volume)}")
    if args.out:
        with _writing(args.out):
            save_body(out_body, args.out)
    return EXIT_OK


def cmd_fixtures(args):
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
        for name, maker in fixture_mod.FIXTURES.items():
            save_body(maker(), os.path.join(args.out, f"{name}.json"))
    print(f"wrote {len(fixture_mod.FIXTURES)} fixtures to {args.out}")
    return EXIT_OK


_HANDLERS = {
    "compute": cmd_compute,
    "verify": cmd_verify,
    "search": cmd_search,
    "symmetrize": cmd_symmetrize,
    "fixtures": cmd_fixtures,
}
_PARSER = []  # main's parser, built once: building it takes about 1.4 ms


def main(argv=None):
    if not _PARSER:
        _PARSER.append(build_parser())
    parser = _PARSER[0]
    try:
        args = parser.parse_args(_join_vectors(sys.argv[1:] if argv is None else argv))
        _check_args(parser, args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except BodyFileError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except GeometryError as exc:
        sys.stderr.write(f"invalid body: {exc}\n")
        return EXIT_BODY
    except LimitError as exc:
        sys.stderr.write(f"theorem limit crossed: {exc}\n")
        return EXIT_SUITE


if __name__ == "__main__":
    sys.exit(main())
