import numpy as np
import pytest

from pettylab import convex_hull, fixtures
from pettylab.geom import _TAU


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


@pytest.fixture(scope="session")
def cube():
    return fixtures.cube()


@pytest.fixture(scope="session")
def octahedron():
    return fixtures.octahedron()


@pytest.fixture(scope="session")
def tetrahedron():
    return fixtures.tetrahedron()


@pytest.fixture(scope="session", params=[1.0 - 1e-9, 1.0 + 1e-9], ids=["narrow", "wide"])
def threshold_bipyramid(request):
    """Apexes at heights +-1 over a hexagon whose corners rise 0, a, 0, a, 0, a.

    Along e3 the width w is 2, and a facet over a hexagon edge and the top
    apex has a segment of height gap a whose long edge has gap 1.  a sits
    just below or just above the gap where slice_quadratics starts to sum
    such a segment by prefix sums, (1 + w/a)(1 + w/1) = (1 + 1/_TAU)^2,
    where a wide segment's terms are largest.
    """
    a = request.param * 2.0 / ((1.0 + 1.0 / _TAU) ** 2 / 3.0 - 1.0)
    th = np.arange(6) * np.pi / 3.0
    ring = np.column_stack([np.cos(th), np.sin(th), np.tile([0.0, a], 3)])
    return convex_hull(np.vstack([ring, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]]))
