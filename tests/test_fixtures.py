"""Chunked draws: the samples, bodies and stream of drawing one at a time."""

import numpy as np
import pytest

from pettylab import FlatBodyError, fixtures, geom
from pettylab.geom import unitize

ONE_AT_A_TIME = (fixtures.random_symmetric_polytope, fixtures.random_generators)


def _steiner_draw(rng, hull, gens):
    P = hull(rng, int(rng.integers(4, 11)))
    return P, unitize(rng.standard_normal(3)), unitize(rng.standard_normal(3))


def _mixed_draw(rng, hull, gens):
    if rng.random() < 0.5:
        return (gens(rng, int(rng.integers(3, 9))),)
    return hull(rng, int(rng.integers(4, 13))), hull(rng, 5)


def _same(a, b):
    """Two samples hold the same arrays and bodies, bit for bit."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert type(x) is type(y)
        if isinstance(x, geom.Polytope):
            for name in ("vertices", "facets", "facet_areas", "facet_normals", "facet_offsets"):
                assert getattr(x, name).tobytes() == getattr(y, name).tobytes()
            assert x.volume == y.volume and x.symmetric == y.symmetric
        else:
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()


def _both(seed, count, draw):
    """draw_chunk's samples and the one-at-a-time samples of one seed, and both rngs."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    chunk = fixtures.draw_chunk(a, count, draw)
    single = [draw(b, *ONE_AT_A_TIME) for _ in range(count)]
    return chunk, single, a, b


@pytest.mark.parametrize("seed", [1, 2, 42])
@pytest.mark.parametrize("draw", [_steiner_draw, _mixed_draw])
def test_chunk_is_the_draws_one_at_a_time(seed, draw):
    chunk, single, a, b = _both(seed, 40, draw)
    for x, y in zip(chunk, single):
        _same(x, y)
    assert a.bit_generator.state == b.bit_generator.state
    assert a.random() == b.random()


def _hull_draw(rng, hull, gens):
    return hull(rng, 6), rng.standard_normal(3)


def test_hull_rejected_at_finish_is_redrawn(monkeypatch):
    # the middle hull of five passes qhull's flatness test, and a facet check
    # of its finish rejects it: in the chunk's stack and on its own alike
    poisoned = fixtures.draw_chunk(np.random.default_rng(5), 5, _hull_draw)[2][0].vertices
    real, stacks = geom._build, []

    def build(polys, verts, tris, vcount, fcount, *args):
        for start, n in zip(geom._starts(vcount), vcount):
            if n == len(poisoned) and np.array_equal(verts[start:start + n], poisoned):
                stacks.append(len(polys))
                raise FlatBodyError("rejected")
        return real(polys, verts, tris, vcount, fcount, *args)

    monkeypatch.setattr(geom, "_build", build)
    chunk, single, a, b = _both(5, 5, _hull_draw)
    # rejected in the stack of five, then on its own in the replay and in
    # the one-at-a-time draw
    assert stacks == [5, 1, 1]
    for x, y in zip(chunk, single):
        _same(x, y)
    assert not np.array_equal(chunk[2][0].vertices, poisoned)
    assert a.bit_generator.state == b.bit_generator.state


def _gens_draw(rng, hull, gens):
    return (gens(rng, int(rng.integers(3, 6))),)


def test_generators_rejected_at_finish_are_redrawn(monkeypatch):
    poisoned = fixtures.draw_chunk(np.random.default_rng(6), 7, _gens_draw)[3][0]
    real, calls = fixtures._solid, []

    def solid(G):
        bad = G.shape[-2] == len(poisoned) and np.all(G == poisoned, axis=(-2, -1))
        calls.append(np.any(bad))
        return real(G) & ~bad

    monkeypatch.setattr(fixtures, "_solid", solid)
    chunk, single, a, b = _both(6, 7, _gens_draw)
    assert sum(calls) == 3  # the stack of its count, the replay and the single draw
    for x, y in zip(chunk, single):
        _same(x, y)
    assert not np.array_equal(chunk[3][0], poisoned)
    assert a.bit_generator.state == b.bit_generator.state


def test_stacked_singular_values_are_each_draws():
    rng = np.random.default_rng(7)
    for n in range(3, 9):
        G = rng.standard_normal((500, n, 3))
        G[::50, 2] = G[::50, 0] + 1e-9 * G[::50, 1]  # some nearly flat
        stacked = np.linalg.svd(G, compute_uv=False)
        each = np.array([np.linalg.svd(g, compute_uv=False) for g in G])
        assert stacked.tobytes() == each.tobytes()
        assert fixtures._solid(G).tolist() == [bool(fixtures._solid(g)) for g in G]
