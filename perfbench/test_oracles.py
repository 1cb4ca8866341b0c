"""Closed-form tests of the benchmark's reference computations, and a smoke run.

    python3 -m pytest perfbench
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
CUBE = [[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
OCTAHEDRON = np.vstack([np.eye(3), -np.eye(3)])


def test_unit_square_zonogon_has_area_4():
    assert oracles.zonogon_area([[1.0, 0.0], [0.0, 1.0]]) == pytest.approx(4.0, rel=1e-15)


def test_zonogon_area_of_a_hexagon():
    # three unit generators 60 degrees apart span a regular hexagon of side 2
    g = [[math.cos(a), math.sin(a)] for a in (0.0, math.pi / 3, 2 * math.pi / 3)]
    assert oracles.zonogon_area(g) == pytest.approx(6.0 * math.sqrt(3.0), rel=1e-14)


def test_zonotope_volume_of_cube_and_parallelepiped():
    assert oracles.zonotope_volume(np.eye(3)) == pytest.approx(8.0, rel=1e-15)
    g = np.array([[1.0, 0.2, 0.0], [0.3, 1.0, 0.1], [0.0, 0.4, 2.0]])
    assert oracles.zonotope_volume(g) == pytest.approx(8.0 * abs(np.linalg.det(g)), rel=1e-13)


@pytest.mark.parametrize("axis", np.eye(3).tolist())
def test_cube_q_is_8(axis):
    q, err = oracles.q_polytope(oracles.Hull(CUBE), axis)
    assert err < 1e-12
    assert q == pytest.approx(8.0, abs=1e-12)


@pytest.mark.parametrize("axis", np.eye(3).tolist())
def test_octahedron_q_is_6(axis):
    q, err = oracles.q_polytope(oracles.Hull(OCTAHEDRON), axis)
    assert err < 1e-12
    assert q == pytest.approx(6.0, abs=1e-12)


def test_ratio_closed_forms():
    assert oracles.ratio_polytope(oracles.Hull(CUBE), [0, 0, 1]) == pytest.approx(8.0, rel=1e-13)
    assert oracles.ratio_polytope(oracles.Hull(OCTAHEDRON), [0, 0, 1]) == pytest.approx(6.0, rel=1e-13)
    assert oracles.ratio_zonotope(np.eye(3), [1, 1, 1]) == pytest.approx(8.0, rel=1e-13)


def test_ts_ratio_with_a_repeated_direction_is_four_thirds():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((4, 3))
    v[3] = 1.7 * v[2]
    assert oracles.ts_ratio(v, rng.standard_normal(3)) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_revolution_closed_forms():
    vol, r = oracles.revolution_volume_and_axis_ratio([-1.0, 1.0], [1.0, 1.0])
    assert vol == pytest.approx(2.0 * math.pi) and r == pytest.approx(8.0)
    vol, r = oracles.revolution_volume_and_axis_ratio([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    assert vol == pytest.approx(2.0 * math.pi / 3.0) and r == pytest.approx(6.0)


@pytest.mark.parametrize("workload", ["exact-pmm", "slice-q", "small-many"])
def test_smoke_run_finishes_in_seconds(workload):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--smoke",
         "--seconds", "0", "--seed", "3"],
        capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert elapsed < 30.0
