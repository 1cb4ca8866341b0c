"""Timing wrappers around pettylab's public functions, for the traced run.

The tracer replaces a function by a wrapper in every loaded pettylab module
that holds it, so calls through `from .geom import convex_hull` imports and
calls inside the defining module are both seen.  Each call becomes a span
(name, start, end, parent) kept in memory; `restore()` puts the originals
back.  Counters that are not spans (integrand evaluations, directions, rows)
are added up at the same boundaries.
"""

import json
import sys
import time

# (module, attribute, span name); the span name is the layer metric prefix
TARGETS = [
    ("pettylab.geom", "convex_hull", "geom.convex_hull"),
    ("pettylab.geom", "slice_quadratics", "geom.slice_quadratics"),
    ("pettylab.geom", "adaptive_simpson", "geom.adaptive_simpson"),
    ("pettylab.geom", "support_batch", "geom.support_batch"),
    ("pettylab.zonotope", "pair_crosses", "zonotope.pair_crosses"),
    ("pettylab.zonotope", "merge_parallel", "zonotope.merge_parallel"),
    ("pettylab.zonotope", "z_volume", "zonotope.z_volume"),
    ("pettylab.zonotope", "polytope_projection_body", "zonotope.polytope_projection_body"),
    ("pettylab.functionals", "ratio_batch", "functionals.ratio_batch"),
    ("pettylab.functionals", "petty_value", "functionals.petty_value"),
    ("pettylab.functionals", "q_direction", "functionals.q_direction"),
    ("pettylab.functionals", "invariants", "functionals.invariants"),
    ("pettylab.functionals", "_chart_refine", "functionals.chart_refine"),
    ("pettylab.search", "evaluate_config", "search.evaluate_config"),
    ("pettylab.search", "optimize", "search.optimize"),
    ("pettylab.suites", "run_suite", "suites"),
    ("pettylab.symmetrize", "schwartz", "symmetrize.schwartz"),
    ("pettylab.symmetrize", "steiner", "symmetrize.steiner"),
    ("pettylab.revolution", "rev_to_polytope", "revolution.rev_to_polytope"),
    ("pettylab.bodies", "load_body", "bodies.load_body"),
    ("pettylab.report", "render_csv", "report.render"),
    ("pettylab.report", "render_json", "report.render"),
]

# objectives whose evaluations build polytopes (search.hulls_per_eval)
HULL_OBJECTIVES = ("min-m-symmetric", "min-Q-symmetric")

SUITE_NAMES = ("ts-ratio", "formula-coherence", "fubini", "minkowski",
               "steiner-monotone", "schwartz-monotone", "berwald", "zhang-petty",
               "theorem-1-1", "theorem-1-2", "sl-invariance", "class-reduction")

# per-layer metric name -> unit, in the order they are reported
LAYER_METRICS = {
    "geom.convex_hull.calls": "count",
    "geom.convex_hull.s": "s",
    "geom.slice_quadratics.calls": "count",
    "geom.slice_quadratics.s": "s",
    "geom.adaptive_simpson.calls": "count",
    "geom.adaptive_simpson.s": "s",
    "geom.adaptive_simpson.integrand_evals": "count",
    "geom.support_batch.s": "s",
    "zonotope.pair_crosses.calls": "count",
    "zonotope.pair_crosses.rows": "count",
    "zonotope.pair_crosses.s": "s",
    "zonotope.merge_parallel.calls": "count",
    "zonotope.merge_parallel.s": "s",
    "zonotope.z_volume.s": "s",
    "zonotope.polytope_projection_body.calls": "count",
    "functionals.ratio_batch.calls": "count",
    "functionals.ratio_batch.directions": "count",
    "functionals.ratio_batch.s": "s",
    "functionals.ratio_batch.temp_mb_max": "MB",
    "functionals.petty_value.s": "s",
    "functionals.q_direction.calls": "count",
    "functionals.q_direction.s": "s",
    "functionals.refine_evals": "count",
    "functionals.invariants.s": "s",
    "search.evaluate_config.calls": "count",
    "search.evaluate_config.s": "s",
    "search.hulls_per_eval": "ratio",
    **{f"suites.{name}.s": "s" for name in SUITE_NAMES},
    "symmetrize.schwartz.s": "s",
    "symmetrize.steiner.s": "s",
    "revolution.rev_to_polytope.s": "s",
    "bodies.load_body.s": "s",
    "report.render.s": "s",
    "cli.overhead.s": "s",
    "trace.overhead_s": "s",
    "trace.self_time_s": "s",
}


class Tracer:
    """Span recorder; one instance per traced round."""

    def __init__(self):
        # span: [name, start, end, parent index, child time, nested, attr]
        self.spans = []
        self.stack = []
        self.active = {}
        self.counts = {"directions": 0, "pair_rows": 0, "temp_mb_max": 0.0}
        self.evals = {"adaptive_simpson": [0], "_chart_refine": [0]}
        self.missing = []
        self._saved = []

    # -- recording -----------------------------------------------------------
    def span(self, name, fn, *args, attr=None, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        nested = self.active.get(name, 0) > 0
        rec = [name, 0.0, 0.0, parent, 0.0, nested, attr]
        idx = len(self.spans)
        self.spans.append(rec)
        self.stack.append(idx)
        self.active[name] = self.active.get(name, 0) + 1
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
            self.active[name] -= 1
            if parent >= 0:
                self.spans[parent][4] += rec[2] - rec[1]

    def _wrapper(self, name, attr, fn):
        tracer = self
        counts = self.counts

        if attr in ("adaptive_simpson", "_chart_refine"):
            # count each call of the function argument (integrand or objective)
            cell = self.evals[attr]

            def wrapped(f, *args, **kwargs):
                def counted(x):
                    cell[0] += 1
                    return f(x)
                return tracer.span(name, fn, counted, *args, **kwargs)
        elif attr == "ratio_batch":
            def wrapped(B, X, *args, **kwargs):
                out = tracer.span(name, fn, B, X, *args, **kwargs)
                n_dirs = int(getattr(out, "size", 1))
                counts["directions"] += n_dirs
                # the pair-cross weight matrix the call multiplies against X
                w = getattr(B, "_second_weights", None)
                if w is not None:
                    mb = w.shape[0] * n_dirs * 8 / 2 ** 20
                    counts["temp_mb_max"] = max(counts["temp_mb_max"], mb)
                return out
        elif attr == "pair_crosses":
            def wrapped(*args, **kwargs):
                out = tracer.span(name, fn, *args, **kwargs)
                counts["pair_rows"] += int(out.shape[0])
                return out
        elif attr == "run_suite":
            def wrapped(suite, *args, **kwargs):
                return tracer.span(f"suites.{suite}", fn, suite, *args, **kwargs)
        elif attr == "optimize":
            def wrapped(objective, *args, **kwargs):
                return tracer.span(name, fn, objective, *args, attr=objective, **kwargs)
        else:
            def wrapped(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        wrapped.__wrapped__ = fn
        return wrapped

    def install(self):
        """Swap every target for its wrapper in all loaded pettylab modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pettylab" or n.startswith("pettylab."))]
        for mod_name, attr, name in TARGETS:
            home = sys.modules.get(mod_name)
            fn = getattr(home, attr, None) if home is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self._wrapper(name, attr, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def restore(self):
        for mod, key, fn in reversed(self._saved):
            setattr(mod, key, fn)
        self._saved = []

    # -- reporting -------------------------------------------------------------
    def _under_hull_search(self, idx):
        """True when a span runs inside optimize() on a polytope objective."""
        p = self.spans[idx][3]
        while p >= 0:
            rec = self.spans[p]
            if rec[0] == "search.optimize":
                return rec[6] in HULL_OBJECTIVES
            p = rec[3]
        return False

    def layer_metrics(self, op_prefix):
        """Per-layer figures; spans named op_prefix* are the operations."""
        calls = {}
        total = {}
        for rec in self.spans:
            name = rec[0]
            calls[name] = calls.get(name, 0) + 1
            if not rec[5]:
                total[name] = total.get(name, 0.0) + (rec[2] - rec[1])
        out = {}
        for metric in LAYER_METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls.get(base, 0)
            elif kind == "s":
                out[metric] = total.get(base, 0.0)
        c = self.counts
        out["geom.adaptive_simpson.integrand_evals"] = self.evals["adaptive_simpson"][0]
        out["zonotope.pair_crosses.rows"] = c["pair_rows"]
        out["functionals.ratio_batch.directions"] = c["directions"]
        out["functionals.ratio_batch.temp_mb_max"] = c["temp_mb_max"]
        out["functionals.refine_evals"] = self.evals["_chart_refine"][0]
        hulls = evals = 0
        for i, rec in enumerate(self.spans):
            if rec[0] in ("geom.convex_hull", "search.evaluate_config") \
                    and self._under_hull_search(i):
                if rec[0] == "geom.convex_hull":
                    hulls += 1
                else:
                    evals += 1
        out["search.hulls_per_eval"] = hulls / evals if evals else 0.0
        ops = [rec for rec in self.spans if rec[3] < 0 and rec[0].startswith(op_prefix)]
        out["cli.overhead.s"] = sum((r[2] - r[1]) - r[4] for r in ops)
        # every span's self time; they add up to the operations' wall time
        out["trace.self_time_s"] = sum((r[2] - r[1]) - r[4] for r in self.spans)
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps([rec[0], round(rec[1] - t0, 7), round(rec[2] - t0, 7),
                                     rec[3]]) + "\n")
