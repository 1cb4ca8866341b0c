"""Verification report rows and their CSV/JSON rendering.

Numeric output is printed with 12 significant digits; reports are
byte-identical for identical inputs apart from the optional timestamp
header.
"""

import datetime
import json

STATUSES = ("PASS", "FAIL", "INFO")


def fmt(x):
    """12-significant-digit rendering used for all numeric CLI output; -0.0 prints as 0."""
    if x is None:
        return "-"
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    return f"{float(x) + 0.0:.12g}"


def _plain(x):
    """x for JSON, a float without the sign of a zero (-0.0 + 0.0 is 0.0)."""
    return float(x) + 0.0 if isinstance(x, float) else x


class Row:
    """(name, value, direction, tolerance, status) plus a free-form detail."""

    def __init__(self, name, value=None, direction=None, tolerance=None,
                 status="INFO", detail=""):
        if status not in STATUSES:
            raise ValueError(f"bad status {status!r}")
        self.name = name
        self.value = value
        self.direction = direction
        self.tolerance = tolerance
        self.status = status
        self.detail = detail

    def as_list(self):
        direction = ("/".join(fmt(c) for c in self.direction)
                     if self.direction is not None else "-")
        return [self.name, fmt(self.value), direction, fmt(self.tolerance),
                self.status, self.detail]

    def as_dict(self):
        return {"name": self.name, "value": _plain(self.value),
                "direction": (None if self.direction is None
                              else [float(c) + 0.0 for c in self.direction]),
                "tolerance": _plain(self.tolerance), "status": self.status,
                "detail": self.detail}


def check(name, ok, value=None, tolerance=None, direction=None, detail=""):
    """Row with PASS/FAIL chosen by a boolean condition."""
    return Row(name, value=value, direction=direction, tolerance=tolerance,
               status="PASS" if ok else "FAIL", detail=detail)


def any_failed(rows):
    return any(r.status == "FAIL" for r in rows)


def render_csv(rows, timestamp=True):
    lines = []
    if timestamp:
        lines.append(f"# generated {datetime.datetime.now().isoformat(timespec='seconds')}")
    lines.append("name,value,direction,tolerance,status,detail")
    for r in rows:
        fields = [f.replace(",", ";") for f in r.as_list()]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def render_json(rows, timestamp=True):
    doc = {"rows": [r.as_dict() for r in rows]}
    if timestamp:
        doc["timestamp"] = datetime.datetime.now().isoformat(timespec="seconds")
    return json.dumps(doc, indent=1, default=float) + "\n"
