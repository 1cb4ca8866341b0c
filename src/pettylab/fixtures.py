"""Bundled fixture bodies and seeded random body generators.

Every acceptance check runs off these: the cube, octahedron, tetrahedron,
icospheres at three subdivision levels, the double-cone and cylinder
profiles, plus reproducible random zonotopes and symmetric hulls.
"""

from collections import namedtuple

import numpy as np

from .bodies import Ball
from .errors import GeometryError
from .geom import Triangles, convex_hull, polytopes, qhull_triangles
from .revolution import RevolutionBody
from .zonotope import GeneratorSet


def cube():
    """[-1, 1]^3 as a symmetric polytope."""
    v = np.array([[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)])
    return convex_hull(v, symmetric=True)


def cube_zonotope():
    """[-1, 1]^3 as the zonotope generated by the coordinate axes."""
    return GeneratorSet(np.eye(3))


def octahedron():
    """conv{+-e_i}, the unit cross-polytope."""
    return convex_hull(np.vstack([np.eye(3), -np.eye(3)]), symmetric=True)


def tetrahedron():
    """conv{0, e1, e2, e3} (not centrally symmetric)."""
    return convex_hull(np.vstack([np.zeros(3), np.eye(3)]), symmetric=False)


def icosphere(level=2):
    """Subdivided icosahedron projected to the unit sphere (symmetric)."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    v /= np.linalg.norm(v[0])
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [tuple(p) for p in v]
    index = {p: i for i, p in enumerate(verts)}

    def midpoint(i, j):
        m = np.array(verts[i]) + np.array(verts[j])
        m /= np.linalg.norm(m)
        key = tuple(np.round(m, 14))
        if key not in index:
            index[key] = len(verts)
            verts.append(key)
        return index[key]

    for _ in range(level):
        new_faces = []
        for (a, b, c) in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    pts = np.array(verts)
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    # snap antipodal pairs exactly so the symmetry flag validates
    order = np.lexsort(pts.T)
    pts_sorted = pts[order]
    for p in pts_sorted:
        d = np.linalg.norm(pts + p, axis=1)
        j = int(np.argmin(d))
        if 0 < d[j] < 1e-9:
            pts[j] = -p
    return convex_hull(pts, symmetric=True)


def double_cone_profile(a=1.0, r=1.0, d=3):
    """Tent profile: circular double cone of half-length a and base radius r."""
    return RevolutionBody(d, a, np.array([-a, 0.0, a]), np.array([0.0, r, 0.0]))


def cylinder_profile(a=1.0, r=1.0, d=3):
    """Constant profile: cylinder of half-length a and radius r."""
    return RevolutionBody(d, a, np.array([-a, a]), np.array([r, r]))


def ball():
    return Ball()


def random_generators(rng, n_gens):
    """Gaussian (n_gens, 3) generators of a solid zonotope (resampled until solid)."""
    for _ in range(100):
        g = rng.standard_normal((n_gens, 3))
        if _solid(g):
            return g
    raise RuntimeError("could not draw a solid zonotope")


def _solid(G):
    """Which generator sets G (..., n, 3) random_generators keeps: s_3 > 1e-6 s_1.

    A stack's singular values are those of each set on its own, bit for bit.
    """
    sv = np.linalg.svd(G, compute_uv=False)
    return sv[..., 2] > 1e-6 * sv[..., 0]


def random_zonotope(rng, n_gens):
    """Zonotope with Gaussian generators (resampled until solid)."""
    return GeneratorSet(random_generators(rng, n_gens))


def random_symmetric_polytope(rng, n_pairs):
    """Hull of +- n_pairs Gaussian points (resampled until solid)."""
    for _ in range(100):
        p = rng.standard_normal((n_pairs, 3))
        try:
            return convex_hull(np.vstack([p, -p]), symmetric=True)
        except GeometryError:
            continue
    raise RuntimeError("could not draw a solid symmetric hull")


def _symmetric_triangles(rng, n_pairs):
    """qhull's triangles of random_symmetric_polytope's draw, redrawn where qhull finds it flat."""
    for _ in range(100):
        p = rng.standard_normal((n_pairs, 3))
        try:
            return qhull_triangles(np.vstack([p, -p]))
        except GeometryError:
            continue
    raise RuntimeError("could not draw a solid symmetric hull")


class _Generators(namedtuple("_Generators", "gens")):
    """A draw of random_generators whose solidity draw_chunk checks later."""

    @classmethod
    def draw(cls, rng, n_gens):
        return cls(rng.standard_normal((n_gens, 3)))


def draw_chunk(rng, count, draw):
    """[draw(rng, random_symmetric_polytope, random_generators) for _ in range(count)].

    The same samples, and rng left in the same state.  draw(rng, hull,
    generators) draws one sample, a tuple, calling hull(rng, n_pairs) for
    each random symmetric hull in it and generators(rng, n_gens) for each
    zonotope's generators, which it returns unread.  Here hull runs qhull
    and its flatness test on each draw, redrawn where
    random_symmetric_polytope redraws, and generators draws once; then the
    chunk's hulls are finished in one stack (geom.polytopes) and its
    generators checked for solidity by one stacked svd per count.  Should a
    body fail, one that the draw would then have redrawn, rng goes back to
    its state before the chunk and the samples are drawn one at a time.
    """
    state = rng.bit_generator.state
    try:
        samples = [draw(rng, _symmetric_triangles, _Generators.draw) for _ in range(count)]
        drafts = [x for sample in samples for x in sample]
        hulls = iter(polytopes([x for x in drafts if isinstance(x, Triangles)], symmetric=True))
        gens = [x.gens for x in drafts if isinstance(x, _Generators)]
        sizes = np.array([len(g) for g in gens])
        if not all(_solid(np.stack([gens[i] for i in np.flatnonzero(sizes == n)])).all()
                   for n in np.unique(sizes)):
            raise GeometryError("a zonotope is not solid")
    except (GeometryError, RuntimeError):
        rng.bit_generator.state = state
        return [draw(rng, random_symmetric_polytope, random_generators) for _ in range(count)]
    return [tuple(next(hulls) if isinstance(x, Triangles) else
                  x.gens if isinstance(x, _Generators) else x for x in sample)
            for sample in samples]


def random_concave_profile(rng, n_nodes=6, a=1.0):
    """Even concave piecewise-linear profile with random node values.

    Built from a random positive decreasing-slope sequence on [0, a] so the
    node sequence is concave by construction.
    """
    s_half = np.linspace(0.0, a, n_nodes)
    # slopes on [0, a] must be nonpositive and decreasing for an even concave f
    slopes = -np.sort(rng.uniform(0.05, 2.0, n_nodes - 1))
    f = np.empty(n_nodes)
    f[0] = rng.uniform(0.5, 2.0)
    for k in range(n_nodes - 1):
        f[k + 1] = f[k] + slopes[k] * (s_half[k + 1] - s_half[k])
    f -= min(0.0, float(f.min()))  # lift so the profile stays nonnegative
    return RevolutionBody(3, a, np.concatenate([-s_half[::-1], s_half[1:]]),
                          np.concatenate([f[::-1], f[1:]]))


FIXTURES = {
    "cube": cube,
    "cube-zonotope": cube_zonotope,
    "octahedron": octahedron,
    "tetrahedron": tetrahedron,
    "icosphere1": lambda: icosphere(1),
    "icosphere2": lambda: icosphere(2),
    "icosphere3": lambda: icosphere(3),
    "double-cone": double_cone_profile,
    "cylinder": cylinder_profile,
    "ball": ball,
}
