"""Body union and the JSON body-file format.

A body is one of: GeneratorSet (zonotope), Polytope, RevolutionBody, or the
unit Ball.  Files are plain JSON documents:

    {"kind": "zonotope",   "generators": [[x,y,z], ...]}
    {"kind": "polytope",   "vertices":   [[x,y,z], ...], "symmetric": true}
    {"kind": "revolution", "dimension": 3, "a": 1.0, "profile": [[s,f], ...]}
    {"kind": "ball"}

Polytope files carry vertices only; the triangulation is rebuilt by the hull
on load, so round-tripping preserves the body exactly.  Coordinates must be
finite, with the largest magnitude of each field within COORD_RANGE.
"""

import json
import math

import numpy as np

from .errors import BodyFileError, GeometryError, InputError
from .geom import Polytope, convex_hull
from .revolution import RevolutionBody
from .zonotope import GeneratorSet


class Ball:
    """Unit ball in R^3 (analytic variant of the body union)."""

    radius = 1.0
    d = 3
    symmetric = zonoid = True
    volume = 4.0 * math.pi / 3.0

    def support(self, X):
        return np.linalg.norm(np.asarray(X, dtype=float), axis=-1)

    def surface_measure(self):
        raise InputError("the ball has no finite surface measure")

    def projection_generators(self):
        raise InputError("the ball is not a zonotope: no projection generators")

    def __repr__(self):
        return "Ball()"


def _is_number(v):
    """A JSON number: int or float, not a boolean or a string."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# The invariants are scale-invariant, but their evaluation is not free of
# overflow.  V(Pi K) is about 512 C(N, 3) s^6 for s the largest |coordinate|
# and N the generators of Pi K, and M and m square the norms of crosses of
# Pi K's generators, about 256 s^8.  From 1e-30 to 1e30 these stay finite and
# normal doubles (2.2e-308 to 1.8e308) with about 1e65 to spare; at 1e40 the
# squared norms overflow and at 1e-40 they underflow.
COORD_RANGE = (1e-30, 1e30)


def _matrix(doc, field, kind, cols):
    """The field's rows as an (n, cols) array, range-checked by _in_range."""
    if field not in doc:
        raise BodyFileError(f"{kind} body needs field '{field}'")
    rows = doc[field]
    if not (isinstance(rows, list) and rows
            and all(isinstance(r, list) and all(map(_is_number, r)) for r in rows)):
        raise BodyFileError(f"field '{field}' must be a nonempty list of rows of numbers")
    if any(len(r) != cols for r in rows):
        raise BodyFileError(f"field '{field}' must have rows of {cols} numbers")
    return _in_range(rows, field)


def _in_range(values, field):
    """values as floats, each finite and the largest magnitude within COORD_RANGE."""
    lo, hi = COORD_RANGE
    try:
        arr = np.asarray(values, dtype=float)
    except OverflowError:  # a JSON integer beyond the double range
        arr = np.array(np.inf)
    top = float(np.max(np.abs(arr), initial=0.0))
    if not (np.all(np.isfinite(arr)) and lo <= top <= hi):
        raise BodyFileError(f"field '{field}' must be finite with largest magnitude "
                            f"from {lo:g} to {hi:g}, got {top:.3g}; rescale the body")
    return arr


_FIELDS = {
    "zonotope": {"kind", "generators"},
    "polytope": {"kind", "vertices", "symmetric"},
    "revolution": {"kind", "dimension", "a", "profile"},
    "ball": {"kind", "dimension"},
}


def body_from_dict(doc):
    """Build a body from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise BodyFileError("body file must hold a JSON object")
    kind = doc.get("kind")
    if kind in _FIELDS:
        extra = set(doc) - _FIELDS[kind]
        if extra:
            raise BodyFileError(f"unexpected fields for kind {kind!r}: {sorted(extra)}")
    if kind == "zonotope":
        return GeneratorSet(_matrix(doc, "generators", kind, 3))
    if kind == "polytope":
        verts = _matrix(doc, "vertices", kind, 3)
        symmetric = doc.get("symmetric", False)
        if type(symmetric) is not bool:
            raise BodyFileError("field 'symmetric' must be true or false")
        return convex_hull(verts, symmetric=symmetric)
    if kind == "revolution":
        prof = _matrix(doc, "profile", kind, 2)
        d = doc.get("dimension", 3)
        if not isinstance(d, int) or isinstance(d, bool):
            raise BodyFileError("field 'dimension' must be an integer")
        a = doc.get("a", float(prof[-1, 0]))
        if not _is_number(a):
            raise BodyFileError("field 'a' must be a number")
        return RevolutionBody(d, float(_in_range(a, "a")), prof[:, 0], prof[:, 1])
    if kind == "ball":
        if doc.get("dimension", 3) != 3:
            raise BodyFileError("field 'dimension' of a ball must be 3")
        return Ball()
    raise BodyFileError(f"unknown body kind {kind!r}")


def body_to_dict(body):
    """Serialize a body to the JSON document form."""
    if isinstance(body, GeneratorSet):
        return {"kind": "zonotope", "generators": body.gens.tolist()}
    if isinstance(body, Polytope):
        return {"kind": "polytope", "vertices": body.vertices.tolist(),
                "symmetric": bool(body.symmetric)}
    if isinstance(body, RevolutionBody):
        return {"kind": "revolution", "dimension": body.d, "a": body.a,
                "profile": np.column_stack([body.s, body.f]).tolist()}
    if isinstance(body, Ball):
        return {"kind": "ball"}
    raise BodyFileError(f"cannot serialize object of type {type(body).__name__}")


def load_body(path):
    """Read and validate a body file; parse errors carry field context."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise BodyFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BodyFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    try:
        return body_from_dict(doc)
    except GeometryError as exc:
        # invalid geometry, not a parse problem: let the caller distinguish
        raise
    except BodyFileError as exc:
        raise BodyFileError(f"{path}: {exc}") from exc


def save_body(body, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body_to_dict(body), fh, indent=1)
        fh.write("\n")
