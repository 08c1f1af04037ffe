"""Spans around torsionlab's public functions, installed from outside the library.

`Tracer.install()` replaces each public function of the library modules
with a wrapper that records a span, in every namespace where a caller
looks it up: the defining module, every library module that imported it
by name, the package namespace and module-level tables such as
`verify.SUITES`.  `torsion` imports `spectral_data` by name, for example,
so that name is wrapped in both `hodge` and `torsion`.  A few methods
that carry the public model and metric calls are wrapped on their
classes, and `zetas.quad` is replaced by a call with `full_output` that
returns the same value and error while recording the node count and any
warning message.  `uninstall()` puts every original back.

Spans are kept in memory as lists [name, module, start, end, parent,
job, attrs] and summarized per pass by `layer_metrics`.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import types
from collections import defaultdict

MODULES = ("complexes", "hodge", "torsion", "zetas", "models", "boundary", "verify", "cli")
METHODS = (("hodge", "ChainMetric", "__init__"),
           ("models", "ClosedModel", "zeta"),
           ("boundary", "BoundaryModel", "zeta"))
SUITES = {"combinatorial": "combinatorial_suite", "closed_spectral": "closed_spectral_suite",
          "boundary": "boundary_suite", "variation": "variation_suite"}

NAME, MODULE, START, END, PARENT, JOB, ATTRS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._keep: list = []  # objects whose id() is in a span key, alive for the job

    def begin_job(self, job_id) -> None:
        self.job = job_id
        self._keep.clear()

    def wrap(self, name: str, module: str, fn, after=None):
        """fn with a span around every call; after(args, kwargs, result) -> attrs."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, module, 0.0, 0.0, stack[-1] if stack else None, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                rec[ATTRS] = after(args, kwargs, result)
            return result
        return traced

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {m: sys.modules[f"torsionlab.{m}"] for m in MODULES}
        containers = [vars(mod) for name, mod in list(sys.modules.items())
                      if name == "torsionlab" or name.startswith("torsionlab.")]
        containers += [value for ns in list(containers) for key, value in ns.items()
                       if isinstance(value, dict) and key != "__builtins__"]
        hooks = self._attribute_hooks()
        for module, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type):
                    continue
                if not isinstance(obj, types.FunctionType) and not hasattr(obj, "__wrapped__"):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{module}.{attr}"
                wrapper = self.wrap(name, module, obj, hooks.get(name))
                for container in containers:
                    for key, value in list(container.items()):
                        if value is obj:
                            container[key] = wrapper
                            self._undo.append((container, key, obj))
        for module, cls_name, method in METHODS:
            cls = getattr(mods[module], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self.wrap(f"{module}.{cls_name}.{method}", module, original))
            self._undo.append((cls, method, original))
        zetas = vars(mods["zetas"])
        real_quad = zetas["quad"]
        counted = self.wrap("zetas.quad", "zetas",
                            lambda *a, **k: real_quad(*a, full_output=1, **k),
                            lambda args, kwargs, out: {"neval": out[2]["neval"],
                                                       "flagged": len(out) > 3})
        zetas["quad"] = lambda *a, **k: counted(*a, **k)[:2]
        self._undo.append((zetas, "quad", real_quad))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._undo):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._undo.clear()

    def _attribute_hooks(self) -> dict:
        keep = self._keep

        def chain_dim(args, kwargs, cplx):
            return {"dim": sum(cplx.dims)}

        def laplacian_dim(args, kwargs, lap):
            return {"dim": lap.shape[0]}

        def spectral_key(args, kwargs, spec):
            bound = list(args) + [kwargs[k] for k in ("cplx", "metric", "k") if k in kwargs]
            keep.append(bound[:2])
            return {"key": (id(bound[0]), id(bound[1]), bound[2])}

        def oracle_dim(args, kwargs, value):
            cplx = args[0] if args else kwargs["cplx"]
            return {"dim": max(cplx.dims)}

        return {"complexes.build_twisted_boundary": chain_dim,
                "hodge.laplacian": laplacian_dim,
                "hodge.spectral_data": spectral_key,
                "torsion.determinant_oracle": oracle_dim}


# --- summaries -----------------------------------------------------------------


def layer_metrics(spans: list[list], lo: int, hi: int) -> dict[str, float]:
    """Per-layer totals of the spans spans[lo:hi], one pass of a workload."""
    child = defaultdict(float)
    for i in range(lo, hi):
        rec = spans[i]
        if rec[PARENT] is not None:
            child[rec[PARENT]] += rec[END] - rec[START]

    def ancestors(i):
        p = spans[i][PARENT]
        while p is not None:
            yield spans[p]
            p = spans[p][PARENT]

    self_s, calls = defaultdict(float), defaultdict(int)
    inclusive, count = defaultdict(float), defaultdict(int)
    attrs = defaultdict(list)
    lr_hodge = 0.0  # hodge time directly under log_reidemeister
    for i in range(lo, hi):
        rec = spans[i]
        dur = rec[END] - rec[START]
        self_s[rec[MODULE]] += dur - child[i]
        calls[rec[MODULE]] += 1
        count[rec[NAME]] += 1
        if rec[ATTRS] is not None:
            attrs[rec[NAME]].append(rec[ATTRS])
        if all(a[NAME] != rec[NAME] for a in ancestors(i)):
            inclusive[rec[NAME]] += dur
        if rec[MODULE] == "hodge":
            for a in ancestors(i):
                if a[MODULE] == "hodge":
                    break
                if a[NAME] == "torsion.log_reidemeister":
                    lr_hodge += dur
                    break

    def largest(name):
        return float(max((a["dim"] for a in attrs[name]), default=0))

    keys = {a["key"] for a in attrs["hodge.spectral_data"]}
    quads = attrs["zetas.quad"]
    out = {
        "complexes.build_twisted_boundary_s": inclusive["complexes.build_twisted_boundary"],
        "complexes.validate_s": inclusive["complexes.validate"],
        "complexes.chain_dim": largest("complexes.build_twisted_boundary"),
        "hodge.laplacian_s": inclusive["hodge.laplacian"],
        "hodge.spectral_data_s": inclusive["hodge.spectral_data"],
        "hodge.spectral_data_calls": float(count["hodge.spectral_data"]),
        "hodge.betti_s": inclusive["hodge.betti"],
        "hodge.eigensolves_per_degree": (count["hodge.spectral_data"] / len(keys)
                                         if keys else 0.0),
        "hodge.max_dim": largest("hodge.laplacian"),
        "torsion.log_reidemeister_s": inclusive["torsion.log_reidemeister"],
        "torsion.log_reidemeister_self_s": inclusive["torsion.log_reidemeister"] - lr_hodge,
        "torsion.variation_check_s": inclusive["torsion.variation_check"],
        "torsion.determinant_oracle_s": inclusive["torsion.determinant_oracle"],
        "torsion.oracle_max_dim": largest("torsion.determinant_oracle"),
        "zetas.mellin_zeta_s": inclusive["zetas.mellin_zeta"],
        "zetas.mellin_zeta_calls": float(count["zetas.mellin_zeta"]),
        "zetas.zeta_at_zero_s": inclusive["zetas.zeta_at_zero"],
        "zetas.quad_calls": float(len(quads)),
        "zetas.quad_neval": float(sum(q["neval"] for q in quads)),
        "zetas.quad_flagged": float(sum(q["flagged"] for q in quads)),
        "models.build_model_s": inclusive["models.build_model"],
        "models.analytic_torsion_s": inclusive["models.analytic_torsion"],
        "models.residue_torsion_s": inclusive["models.residue_torsion"],
        "models.identity_suite_s": inclusive["models.identity_suite"],
        "boundary.build_s": (inclusive["boundary.build_interval"]
                             + inclusive["boundary.build_cylinder"]),
        "boundary.gluing_check_s": inclusive["boundary.gluing_check"],
        "boundary.proposition_check_s": inclusive["boundary.proposition_check"],
        "boundary.residue_torsion_s": inclusive["boundary.boundary_residue_torsion"],
    }
    for suite, fn in SUITES.items():
        out[f"verify.{suite}_s"] = inclusive[f"verify.{fn}"]
    for module in MODULES:
        out[f"{module}.self_s"] = self_s[module]
        out[f"{module}.calls"] = float(calls[module])
    return out


def top_level_seconds(spans: list[list], lo: int, hi: int) -> float:
    """Time covered by the outermost spans of spans[lo:hi]."""
    return sum(rec[END] - rec[START] for rec in spans[lo:hi] if rec[PARENT] is None)


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
