"""CLI fuzz: generated body files and flag combinations end in a documented exit code.

Run as a script (`python tests/test_cli_fuzz.py DIR`), it writes seeded body
files to DIR, runs about 100 command lines through pettylab.cli.main in this
one process, and prints one line per command line: its exit code, or
"traceback" when main raised, and for a `compute` that exits 0 the body's
kind and the `M` and `m` it reports, as JSON after a tab.  The test runs the
script in a child process whose address space is capped, so running out of
memory is a traceback too, and holds every reported `m` to Theorem 1.2's
`m >= 6` and every zonotope's `M` to Theorem 1.1's `M <= 8`.
"""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys

import numpy as np

SEED = 11
ADDRESS_SPACE = 2 * 2**30
EXIT_CODES = {"0", "2", "3", "4"}

DIRECTIONS = ("0,0,1", "0,0,0", "nan,0,0", "inf,1,0", "1,1e-300,0", "0.3,-0.2,1")


def _bodies(rng):
    """Body documents by name: coordinates at and beyond the accepted range,
    degenerate and falsely symmetric hulls, and profiles the library rejects."""
    docs = {}
    # the largest |coordinate| of each is the scale
    unit = lambda a: a / np.max(np.abs(a))
    for scale in (1.0, 1e-30, 1e30, 1e-200, 1e70, 1e300):
        docs[f"zonotope-{scale:g}"] = {
            "kind": "zonotope", "generators": (scale * unit(rng.standard_normal((5, 3)))).tolist()}
        pts = scale * unit(rng.standard_normal((6, 3)))
        docs[f"hull-{scale:g}"] = {"kind": "polytope", "symmetric": True,
                                   "vertices": np.vstack([pts, -pts]).tolist()}
    cube = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
    tet = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]
    docs["coplanar"] = {"kind": "polytope", "symmetric": False,
                        "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0.5, 0.5, 0]]}
    docs["duplicates"] = {"kind": "polytope", "symmetric": True, "vertices": cube + cube[:5]}
    docs["tetrahedron-claimed-symmetric"] = {"kind": "polytope", "symmetric": True,
                                             "vertices": tet}
    docs["tetrahedron"] = {"kind": "polytope", "symmetric": False, "vertices": tet}
    docs["flat-zonotope"] = {"kind": "zonotope",
                             "generators": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [2, -1, 0]]}
    docs["parallel-zonotope"] = {"kind": "zonotope",
                                 "generators": [[1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 0, 1]]}
    # flattened to aspect 1e-8: every cross near the thin axis is short
    docs["thin-hull"] = {"kind": "polytope", "symmetric": True,
                         "vertices": [[x, y, 1e-8 * z] for x, y, z in cube]}
    docs["thin-zonotope-3"] = {"kind": "zonotope",
                               "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1e-8]]}
    docs["thin-zonotope-4"] = {"kind": "zonotope", "generators": [
        [1, 0, 0], [0, 1, 0], [0, 0, 1e-8], [1, 1, 1e-8]]}
    docs["non-concave"] = {"kind": "revolution", "dimension": 3, "a": 1.0,
                           "profile": [[-1, 1], [0, 0.2], [1, 1]]}
    docs["cone-d4"] = {"kind": "revolution", "dimension": 4, "a": 1.0,
                       "profile": [[-1, 0], [0, 1], [1, 0]]}
    docs["cone"] = {"kind": "revolution", "dimension": 3, "a": 1.0,
                    "profile": [[-1, 0], [0, 1], [1, 0]]}
    docs["ball"] = {"kind": "ball"}
    return docs


def command_lines(work):
    """The seeded command lines, each a list of arguments for main."""
    rng = np.random.default_rng(SEED)
    lines = []
    for name, doc in _bodies(rng).items():
        path = os.path.join(work, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        grid, refine = str(rng.choice([2, 3, 16])), str(rng.choice([0, 1, 3]))
        d, track = rng.choice(DIRECTIONS, size=2)
        x = ",".join(repr(float(c)) for c in rng.standard_normal(3))
        out = os.path.join(work, f"{name}-out.json")
        lines += [
            ["compute", path, "--invariants", "P"],
            ["compute", path, "--grid", grid, "--refine", refine],
            ["compute", path, "--invariants", "Q,m", "--grid", "2", "--refine", "0",
             "--format", "json"],
            ["symmetrize", path, "--mode", "steiner", f"--direction={d}", "--out", out],
            ["symmetrize", path, "--mode", "schwartz", f"--direction={x}",
             f"--track-ratio={x}", "--out", out],
            ["symmetrize", path, "--mode", "schwartz", f"--direction={x}",
             f"--track-ratio={track}"],
            ["symmetrize", path, "--mode", "steiner", "--steps", "2", "--seed", "1"],
        ]
    path = os.path.join(work, "hull-1.json")
    lines += [
        ["compute", path, "--invariants", ","],
        ["compute", path, "--invariants", "P,P"],
        ["compute", path, "--grid", "1"],
        ["symmetrize", path, "--mode", "schwartz", "--steps", "3"],
        ["symmetrize", path, "--mode", "steiner", "--steps", "3", "--direction", "1,0,0"],
        ["symmetrize", path, "--mode", "steiner", "--direction", "1,2"],
        ["compute", os.path.join(work, "missing.json")],
        ["symmetrize", path, "--mode", "schwartz", "--direction", "-1,0,0",
         "--track-ratio", "-0.3,-0.2,1"],
    ]
    # output paths that cannot be written: a missing directory, a file as directory
    nowhere = os.path.join(work, "missing", "out.json")
    lines += [
        ["compute", path, "--invariants", "P", "--out", nowhere],
        ["verify", "berwald", "--samples", "5", "--out", nowhere],
        ["symmetrize", path, "--mode", "steiner", "--out", nowhere],
        ["search", "max-ts-ratio", "--restarts", "1", "--iters", "5", "--out", nowhere],
        ["search", "max-ts-ratio", "--restarts", "1", "--iters", "5", "--log", nowhere],
        ["fixtures", "--out", os.path.join(path, "fixtures")],
    ]
    return lines


def _reported(path, text):
    """The body's kind and the M and m of a compute report (CSV or JSON)."""
    if text.startswith("{"):
        rows = [(r["name"], r["value"]) for r in json.loads(text)["rows"]]
    else:
        rows = [line.split(",")[:2] for line in text.splitlines()[1:]]
    with open(path, encoding="utf-8") as fh:
        values = {"kind": json.load(fh)["kind"]}
    values.update((name, float(value)) for name, value in rows if name in ("M", "m"))
    return values


def main(work):
    from pettylab.cli import main as cli_main
    for argv in command_lines(work):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = str(cli_main(["--no-timestamp", *argv]))
        except BaseException as exc:  # every escape from main is a finding
            code = f"traceback:{type(exc).__name__}"
        line = f"{code} --no-timestamp {' '.join(os.path.basename(a) for a in argv)}"
        if code == "0" and argv[0] == "compute":
            line += "\t" + json.dumps(_reported(argv[1], out.getvalue()))
        print(line, flush=True)


def test_cli_fuzz_exit_codes(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path)], capture_output=True, text=True,
        timeout=300, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (ADDRESS_SPACE, ADDRESS_SPACE)))
    # the script ends with exit 0 only after its last command line
    assert proc.returncode == 0, proc.stderr
    results = [line.split(" ", 1) for line in proc.stdout.splitlines()]
    assert len(results) >= 100
    bad = [(code, line) for code, line in results if code not in EXIT_CODES]
    assert not bad, bad
    reports = [(line, json.loads(line.partition("\t")[2]))
               for _, line in results if "\t" in line]
    assert any(r["kind"] == "zonotope" and "M" in r for _, r in reports)
    breaches = [(line, r) for line, r in reports
                if r.get("m", 6.0) < 6.0 - 1e-9
                or (r["kind"] == "zonotope" and r.get("M", 8.0) > 8.0 + 1e-9)]
    assert not breaches, breaches


if __name__ == "__main__":
    main(sys.argv[1])
