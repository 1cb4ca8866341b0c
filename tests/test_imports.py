"""Start-up cost: a command loads only the heavy modules it runs.

Each case starts a fresh interpreter, so modules loaded by this test
process do not count.
"""

import os
import subprocess
import sys

import pytest

from pettylab import fixtures, save_body

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HEAVY = ("scipy.spatial", "scipy.optimize", "concurrent.futures.process")


def loaded_after(code):
    """The HEAVY modules in sys.modules after a fresh interpreter runs code."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=SRC)
    probe = f"{code}\nimport sys\nprint(','.join(m for m in {HEAVY!r} if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return set(filter(None, proc.stdout.splitlines()[-1].split(",")))


def run_main(*argv):
    return f"from pettylab.cli import main\nassert main({['--no-timestamp', *argv]!r}) == 0"


@pytest.mark.parametrize("code", [
    "import pettylab",
    run_main("verify", "ts-ratio", "--samples", "10"),
    run_main("search", "max-ts-ratio", "--n", "5", "--restarts", "2", "--iters", "5"),
], ids=["import", "verify-ts-ratio", "search-max-ts-ratio"])
def test_no_heavy_imports(code):
    assert loaded_after(code) == set()


def test_polytope_compute_loads_the_hull_only(tmp_path):
    path = str(tmp_path / "octahedron.json")
    save_body(fixtures.octahedron(), path)
    code = run_main("compute", path, "--invariants", "P,M", "--refine", "0")
    assert loaded_after(code) == {"scipy.spatial"}


def test_zonotope_compute_at_default_refine_loads_nothing(tmp_path):
    # the refinement is numpy's: no scipy.optimize
    path = str(tmp_path / "cube-zonotope.json")
    save_body(fixtures.cube_zonotope(), path)
    assert loaded_after(run_main("compute", path, "--invariants", "P,M,m")) == set()


def test_polytope_compute_at_default_refine_loads_the_hull_only(tmp_path):
    path = str(tmp_path / "octahedron.json")
    save_body(fixtures.octahedron(), path)
    assert loaded_after(run_main("compute", path, "--grid", "256")) == {"scipy.spatial"}
