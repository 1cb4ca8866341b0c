"""Benchmark of pettylab's `compute`, `verify`, `search` and `symmetrize`.

    python3 perfbench/run.py --workload exact-pmm|slice-q|small-many
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run it from the root of a source checkout; pettylab is imported from its
`src/` directory.  One process runs one workload: it writes the workload's
bodies into a temporary directory, then repeats whole rounds of the
workload's operations until --seconds have passed, and times fresh
interpreters importing pettylab before and after the rounds (set-up).
Every operation is one pettylab command line
run through `pettylab.cli.main`, and its output is checked against the
benchmark's own reference computations.  The last line of standard output
is one JSON object: correct, attempted, failed and the metrics.

With --trace 1 the process runs one untraced round, then one round with
timing wrappers around each layer's functions, and reports the per-layer
figures and the tracing overhead instead of the end-to-end metrics.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# fresh interpreters timed before the rounds and again after them
SETUP_REPEATS = 3

END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and fewer set-up samples, for a quick self-test")
    return p.parse_args(argv)


def child_env():
    """This process's environment (BLAS already pinned) with src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_setup(repeats):
    """Wall times of fresh interpreters that import pettylab."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pettylab"], env=child_env(),
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_op(cli, op):
    """Run one command line; returns (seconds, exit code or exception, stdout)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            outcome = cli.main(op.argv)
    except Exception as exc:  # an operation that raises has failed
        outcome = exc
    return time.perf_counter() - t0, outcome, buf.getvalue()


class Round:
    """Wall time of each operation, in order, and what went wrong."""

    def __init__(self):
        self.op_times = []
        self.failed = 0
        self.incorrect = 0
        self.errors = []


def run_round(cli, ops, checked, tracer=None):
    """One pass over the operations; outputs are checked once per distinct text."""
    rnd = Round()
    for i, op in enumerate(ops):
        if tracer is None:
            dt, outcome, stdout = run_op(cli, op)
        else:
            dt, outcome, stdout = tracer.span(f"op.{op.kind}", run_op, cli, op)
        rnd.op_times.append(dt)
        if outcome != 0:
            rnd.failed += 1
            what = (f"{type(outcome).__name__}: {outcome}" if isinstance(outcome, Exception)
                    else f"exit code {outcome}")
            rnd.errors.append(f"{op.label}: {what}")
            continue
        text = op.output(stdout)
        if i not in checked or checked[i][0] != text:
            checked[i] = (text, op.problem(text))
        error = checked[i][1]
        if error is None:
            continue
        if op.known_fault:
            rnd.failed += 1
            rnd.errors.append(f"{op.label}: fails by a known fault ({op.known_fault}): {error}")
        else:
            rnd.incorrect += 1
            rnd.errors.append(f"{op.label}: check failed: {error}")
    return rnd


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pettylab", "__init__.py")):
        sys.stderr.write(f"no pettylab sources under {SRC}; run from a source checkout\n")
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("PETTYLAB_SEED", None)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import pettylab
    from pettylab import cli
    if not os.path.abspath(pettylab.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"imported pettylab from {pettylab.__file__}, not {SRC}\n")
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="bodies-") as work:
        fixtures = os.path.join(work, "fixtures")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["fixtures", "--out", fixtures])
        ops = workloads.WORKLOADS[args.workload](args.seed, work, fixtures, smoke=args.smoke)
        checked = {}
        if args.trace:
            result = traced(cli, ops, checked, args)
        else:
            result = untraced(cli, ops, checked, args)
    sys.stderr.write(f"workload {args.workload} seed {args.seed}: {len(ops)} operations "
                     f"per round, BLAS threads {BLAS_THREADS}\n")
    write_result(args, result)
    del result["round_s"], result["op_s"]
    for err in result.pop("errors"):
        sys.stderr.write(f"  {err}\n")
    print(json.dumps(result))
    return 0


def untraced(cli, ops, checked, args):
    repeats = 1 if args.smoke else SETUP_REPEATS
    setup = time_setup(repeats)
    rounds = []
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < args.seconds:
        rounds.append(run_round(cli, ops, checked))
    setup += time_setup(repeats)
    # each operation's median over the rounds, then the median operation
    per_op = [statistics.median(times) for times in zip(*(r.op_times for r in rounds))]
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(sum(r.op_times) for r in rounds),
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return summarize(rounds, ops, {k: (v, END_TO_END[k]) for k, v in metrics.items()})


def traced(cli, ops, checked, args):
    from tracer import LAYER_METRICS, Tracer
    base = run_round(cli, ops, checked)
    tr = Tracer()
    tr.install()
    try:
        rnd = run_round(cli, ops, checked, tracer=tr)
    finally:
        tr.restore()
    layer = tr.layer_metrics("op.")
    layer["trace.overhead_s"] = sum(rnd.op_times) - sum(base.op_times)
    tr.dump(os.path.join(RESULTS, f"trace-{args.workload}.jsonl"))
    if tr.missing:
        rnd.errors.append(f"functions not found for tracing: {', '.join(tr.missing)}")
    metrics = {k: (layer[k], unit) for k, unit in LAYER_METRICS.items()}
    return summarize([base, rnd], ops, metrics)


def summarize(rounds, ops, metrics):
    errors = [e for r in rounds for e in r.errors]
    failed = sum(r.failed for r in rounds)
    return {
        "correct": not any(r.incorrect for r in rounds),
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "errors": errors,
        "round_s": [sum(r.op_times) for r in rounds],
        "op_s": {op.label: [r.op_times[i] for r in rounds] for i, op in enumerate(ops)},
    }


def write_result(args, result):
    smoke = "-smoke" if args.smoke else ""
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{smoke}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "blas_threads": int(BLAS_THREADS), **result}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
