"""Start-up cost and module structure.

A command loads only the heavy modules it runs: each case starts a fresh
interpreter, so modules loaded by this test process do not count.  The
structure checks read the source with ast, in place of a linter.
"""

import ast
import glob
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


def _tree(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


MODULES = sorted(glob.glob(os.path.join(SRC, "pettylab", "*.py")))
FUNCTIONALS = os.path.join(SRC, "pettylab", "functionals.py")


@pytest.mark.parametrize("path", [p for p in MODULES if not p.endswith("__init__.py")],
                         ids=os.path.basename)
def test_modules_use_every_name_they_import(path):
    # __init__ imports to export
    tree = _tree(path)
    imported = {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, sorted(imported - used)


def test_functionals_leaves_zonotope_internals_and_body_types_alone():
    # zonotope rules stay behind zonotope's public names, and a body answers
    # for itself: only the ball and a revolution body are told apart
    tree = _tree(FUNCTIONALS)
    private = [a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "zonotope"
               for a in node.names if a.name.startswith("_")]
    assert private == []
    checked = [ast.unparse(node.args[1]) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"]
    assert checked and set(checked) <= {"Ball", "RevolutionBody"}, checked
