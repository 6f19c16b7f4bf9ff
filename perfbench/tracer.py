"""Per-layer tracing of mellin_saddle, installed from outside the package.

Each traced function is replaced, in every package module that refers to
it, by a wrapper that records a span (name, start, end, parent).  A span's
self time is its duration minus the time its child spans cover, so the
self times of a properly nested tree add up to the duration of its roots.
Layers are the package's modules; a span is named ``<layer>.<function>``.

Counters that the spans cannot give (jet points, quadrature nodes, Newton
iterations, series terms, ...) are read from arguments and results at the
same boundaries.  Spans are kept in flat arrays and written out on demand.
"""
from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "mellin_saddle"

# (module, attribute, span name); methods are given as Class.method.
TARGETS = [
    ("special", "loggamma", "special.loggamma"),
    ("special", "digamma", "special.digamma"),
    ("special", "trigamma", "special.trigamma"),
    ("catalog", "AdmissibleFunction.jet", "catalog.jet"),
    ("catalog", "AdmissibleFunction.log_gamma", "catalog.log_gamma"),
    ("catalog", "build", "catalog.build"),
    ("quadrature", "adaptive_integrate", "quadrature.adaptive_integrate"),
    ("quadrature", "scan_drop", "quadrature.scan_drop"),
    ("saddle", "solve_real", "saddle.solve_real"),
    ("saddle", "solve_real_log", "saddle.solve_real_log"),
    ("saddle", "solve", "saddle.solve"),
    ("saddle", "solve_log_domain", "saddle.solve_log_domain"),
    ("saddle", "classify", "saddle.classify"),
    ("saddle", "boundary_psi", "saddle.boundary_psi"),
    ("transforms", "eval_K", "transforms.eval_K"),
    ("transforms", "eval_E_series", "transforms.eval_E_series"),
    ("transforms", "eval_growth_sum", "transforms.eval_growth_sum"),
    ("transforms", "eval_abel_plana_rhs", "transforms.eval_abel_plana_rhs"),
    ("transforms", "moment", "transforms.moment"),
    ("asymptotics", "E_asymptotic", "asymptotics.E_asymptotic"),
    ("asymptotics", "K_asymptotic", "asymptotics.K_asymptotic"),
    ("cli", "main", "cli.main"),
]

EVALUATORS = ("eval_K", "eval_E_series", "eval_growth_sum",
              "eval_abel_plana_rhs", "moment")
# the integrand callbacks handed to the quadrature engine are closures of
# the transforms module; their own work is charged to that layer
CALLBACK = "transforms.integrand"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self._stack: list[list] = []        # [span index, child time]
        self._depth = Counter()             # name id -> open spans
        self._layer_depth = Counter()       # layer -> open spans
        self.self_time = defaultdict(float)     # name -> s
        self.inclusive = defaultdict(float)     # name -> s, outermost spans
        self.layer_inclusive = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.rays: list = []
        self.paused = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, *args, **kw):
        """Call fn inside a span called name."""
        if self.paused:
            return fn(*args, **kw)
        nid = self._id(name)
        layer = name.split(".", 1)[0]
        idx = len(self.start)
        frame = [idx, 0.0]
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.name_id.append(nid)
        self._stack.append(frame)
        self._depth[nid] += 1
        self._layer_depth[layer] += 1
        t0 = perf_counter()
        self.start.append(t0)
        self.end.append(t0)
        try:
            return fn(*args, **kw)
        finally:
            t1 = perf_counter()
            d = t1 - t0
            self.end[idx] = t1
            self._stack.pop()
            self._depth[nid] -= 1
            self._layer_depth[layer] -= 1
            self.self_time[name] += d - frame[1]
            if self._stack:
                self._stack[-1][1] += d
            if self._depth[nid] == 0:
                self.inclusive[name] += d
            if self._layer_depth[layer] == 0:
                self.layer_inclusive[layer] += d
            self.calls[name] += 1

    def parent_name(self) -> str:
        if not self._stack:
            return ""
        return self.names[self.name_id[self._stack[-1][0]]]

    def in_layer(self, layer: str) -> bool:
        return self._layer_depth[layer] > 0

    # -- installation --------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap every TARGETS function wherever a package module refers to it."""
        pkg_modules = [m for n, m in sorted(modules.items())
                       if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod_name, attr, span_name in TARGETS:
            mod = modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrapper(span_name, getattr(cls, meth)))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrapper(span_name, original)
            for m in pkg_modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

    def _wrapper(self, name, fn):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        tracer = self

        def traced(*args, **kw):
            if tracer.paused:
                return fn(*args, **kw)
            if hook is None:
                return tracer.span(name, fn, *args, **kw)
            return hook(fn, args, kw)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- counters read at the boundaries ------------------------------------

    def _on_catalog_jet(self, fn, args, kw):
        s = args[1] if len(args) > 1 else kw["s"]
        self.counts["catalog.jet.points"] += int(np.size(s))
        if self.parent_name() == "catalog.log_gamma":
            self.counts["catalog.jet.value_only"] += 1
        if self.in_layer("saddle"):
            self.counts["saddle.jet_calls"] += 1
        return self.span("catalog.jet", fn, *args, **kw)

    def _callback(self, g):
        return lambda *a, **k: self.span(CALLBACK, g, *a, **k)

    def _on_quadrature_adaptive_integrate(self, fn, args, kw):
        args = (self._callback(args[0]),) + tuple(args[1:])
        res = self.span("quadrature.adaptive_integrate", fn, *args, **kw)
        self.counts["quadrature.nodes"] += res.nodes
        # the engine returns unconverged only once it can refine no further
        # within its budget; its stop rule stays its own
        if res.converged:
            self.counts["quadrature.converged_nodes"] += res.nodes
        else:
            self.counts["quadrature.budget_exhausted"] += 1
        return res

    def _on_quadrature_scan_drop(self, fn, args, kw):
        args = (self._callback(args[0]),) + tuple(args[1:])
        return self.span("quadrature.scan_drop", fn, *args, **kw)

    def _on_saddle_solve_real(self, fn, args, kw):
        f = args[0]
        log_r = args[1] if len(args) > 1 else kw["log_r"]
        self.rays.append((f.label, float(log_r)))
        return self.span("saddle.solve_real", fn, *args, **kw)

    def _on_saddle_solve(self, fn, args, kw):
        sol, tag = self.span("saddle.solve", fn, *args, **kw)
        if sol is not None:
            self.counts["saddle.newton_iters"] += sol.iterations
        return sol, tag

    def _evaluator(self, name, fn, args, kw):
        res = self.span(name, fn, *args, **kw)
        if not res.converged:
            self.counts["transforms.unconverged"] += 1
        if name in ("transforms.eval_E_series", "transforms.eval_growth_sum"):
            self.counts["transforms.series_terms"] += res.nodes
        return res

    def _on_transforms_eval_K(self, fn, args, kw):
        return self._evaluator("transforms.eval_K", fn, args, kw)

    def _on_transforms_eval_E_series(self, fn, args, kw):
        return self._evaluator("transforms.eval_E_series", fn, args, kw)

    def _on_transforms_eval_growth_sum(self, fn, args, kw):
        return self._evaluator("transforms.eval_growth_sum", fn, args, kw)

    def _on_transforms_eval_abel_plana_rhs(self, fn, args, kw):
        return self._evaluator("transforms.eval_abel_plana_rhs", fn, args, kw)

    def _on_transforms_moment(self, fn, args, kw):
        return self._evaluator("transforms.moment", fn, args, kw)

    def _on_cli_main(self, fn, args, kw):
        code = self.span("cli.main", fn, *args, **kw)
        if code != 0:
            self.counts["cli.exit_nonzero"] += 1
        return code

    # -- results -------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(t for n, t in self.self_time.items()
                   if n.split(".", 1)[0] == layer)

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        c, st, calls = self.counts, self.self_time, self.calls
        jet_calls = calls["catalog.jet"]
        nodes = c["quadrature.nodes"]
        out = {
            "catalog.jet.calls": (jet_calls, "count"),
            "catalog.jet.points": (c["catalog.jet.points"], "count"),
            "catalog.jet.self_s": (st["catalog.jet"], "s"),
            "catalog.jet.value_only_share": (
                c["catalog.jet.value_only"] / jet_calls if jet_calls else 0.0, "ratio"),
            "catalog.build.self_s": (st["catalog.build"], "s"),
            "catalog.self_s": (self.layer_self("catalog"), "s"),
        }
        for fn in ("loggamma", "digamma", "trigamma"):
            out[f"special.{fn}.calls"] = (calls[f"special.{fn}"], "count")
        out["special.self_s"] = (self.layer_self("special"), "s")
        out["special.trigamma.self_s"] = (st["special.trigamma"], "s")
        out.update({
            "quadrature.adaptive_integrate.calls": (
                calls["quadrature.adaptive_integrate"], "count"),
            "quadrature.nodes": (nodes, "count"),
            "quadrature.self_s": (self.layer_self("quadrature"), "s"),
            "quadrature.budget_exhausted": (c["quadrature.budget_exhausted"], "count"),
            "quadrature.converged_node_share": (
                c["quadrature.converged_nodes"] / nodes if nodes else 0.0, "ratio"),
            "quadrature.scan_drop.calls": (calls["quadrature.scan_drop"], "count"),
        })
        for fn in ("solve_real", "solve", "boundary_psi"):
            out[f"saddle.{fn}.calls"] = (calls[f"saddle.{fn}"], "count")
        n_rays = len(self.rays)
        out.update({
            "saddle.self_s": (self.layer_self("saddle"), "s"),
            "saddle.inclusive_s": (self.layer_inclusive["saddle"], "s"),
            "saddle.jet_calls": (c["saddle.jet_calls"], "count"),
            "saddle.newton_iters": (c["saddle.newton_iters"], "count"),
            "saddle.distinct_ray_share": (
                len(set(self.rays)) / n_rays if n_rays else 0.0, "ratio"),
        })
        for fn in EVALUATORS:
            name = f"transforms.{fn}"
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (st[name], "s")
            out[f"{name}.inclusive_s"] = (self.inclusive[name], "s")
        out.update({
            "transforms.self_s": (self.layer_self("transforms"), "s"),
            "transforms.series_terms": (c["transforms.series_terms"], "count"),
            "transforms.unconverged": (c["transforms.unconverged"], "count"),
            "asymptotics.calls": (calls["asymptotics.E_asymptotic"]
                                  + calls["asymptotics.K_asymptotic"], "count"),
            "asymptotics.self_s": (self.layer_self("asymptotics"), "s"),
            "cli.main.calls": (calls["cli.main"], "count"),
            "cli.self_s": (self.layer_self("cli"), "s"),
            "cli.exit_nonzero": (c["cli.exit_nonzero"], "count"),
            "bench.self_s": (self.layer_self("bench"), "s"),
        })
        return out

    def deterministic_counts(self) -> dict:
        """The cost counters that must repeat exactly for one seed."""
        return {"catalog.jet.points": self.counts["catalog.jet.points"],
                "quadrature.nodes": self.counts["quadrature.nodes"],
                "saddle.newton_iters": self.counts["saddle.newton_iters"],
                "transforms.series_terms": self.counts["transforms.series_terms"]}

    def save(self, path) -> None:
        """Write the spans (name, start, end, parent) as a compressed .npz."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32))
