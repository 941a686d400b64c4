"""Spans around the calls into flagdim's public functions, from outside.

``install`` replaces each listed function, in every flagdim module that
binds it, by a wrapper that times the call and reads a work count from
its arguments or its result.  Nothing inside the package changes, so the
untraced run executes exactly the code a user runs.

Spans are aggregated in memory per function: calls, total time, self time
(total minus the time of traced calls made inside it) and named counts.
Spans that open at the top of the command (the legs) are also kept one by
one with their start and end, in call order, for the per-leg table.
"""

import math
import os
import sys
import time


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _stack_size(a):
    """Number of matrices in a (..., d, d) stack; one for a single matrix."""
    shape = getattr(a, "shape", ())
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


def _share(num, den):
    return float(num) / float(den) if den else 0.0


def _pool_steps(args, kwargs, result):
    return {"replica_steps": int(_arg(args, kwargs, 1, "count"))
            * int(_arg(args, kwargs, 2, "burnin"))}


def _decay_share(args, kwargs, result):
    return {"certified": int(result.replicas),
            "replicas": int(_arg(args, kwargs, 3, "replicas"))}


def _density_share(args, kwargs, result):
    return {"accepted": int(result.diagnostics["effective_samples"]),
            "attempted": int(_arg(args, kwargs, 4, "orbit_samples", 100))}


def _interval_share(args, kwargs, result):
    return {"accepted": int(result.diagnostics["effective_samples"]),
            "attempted": int(_arg(args, kwargs, 3, "replicas", 100))}


def _d2_share(args, kwargs, result):
    kept = int(result.diagnostics["effective_samples"])
    return {"accepted": kept,
            "attempted": kept + int(result.diagnostics["dropped_queries"])}


def _fit_share(args, kwargs, result):
    return {"fits": int(result.n_points),
            "attempted": int(result.n_points) + int(result.skipped_points)}


def _emitted_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


# (module, function, counts read from (args, kwargs, result))
TRACED = (
    ("ensemble", "sample_batch",
     lambda a, k, r: {"matrices": int(_arg(a, k, 2, "n"))}),
    ("dynamics", "batched_orthonormalize",
     lambda a, k, r: {"matrices": _stack_size(_arg(a, k, 0, "mats"))}),
    ("dynamics", "evolve_flags",
     lambda a, k, r: {"replica_steps": len(_arg(a, k, 1, "bases"))
                      * int(_arg(a, k, 2, "n_steps"))}),
    ("dynamics", "lyapunov_spectrum", None),
    ("dynamics", "stationary_flag_pool", _pool_steps),
    ("dynamics", "push_flags",
     lambda a, k, r: {"flag_steps": len(_arg(a, k, 0, "pinned"))
                      * len(_arg(a, k, 1, "bases"))}),
    ("dynamics", "forward_orbit",
     lambda a, k, r: {"steps": int(_arg(a, k, 2, "n_steps"))}),
    ("flagcore", "partial_flag", None),
    ("dynamics", "circle_map_between", None),
    ("dynamics", "stable_coordinates",
     lambda a, k, r: {"steps": len(_arg(a, k, 0, "trace").maps)}),
    ("dynamics", "push_arc", None),
    ("dynamics", "stationary_orbit",
     lambda a, k, r: {"steps": int(_arg(a, k, 2, "n_steps"))
                      + int(_arg(a, k, 3, "burnin"))}),
    ("dynamics", "interval_decay_curve", _decay_share),
    ("measures", "kernel_sums",
     lambda a, k, r: {"queries": len(r[0])}),
    ("measures", "local_dimension", None),
    ("measures", "ball_mass", None),
    ("measures", "wasserstein_circle", None),
    ("measures", "max_cluster_weight", None),
    ("entropy", "furstenberg_entropy_d2", _d2_share),
    ("entropy", "kappa_density_estimator", _density_share),
    ("entropy", "conditional_fiber_sample", None),
    ("entropy", "kappa_interval_estimator", _interval_share),
    ("entropy", "dimension_formula_report", _fit_share),
    ("harness", "emit_outputs", _emitted_bytes),
    # a leg of the dimension command; timed for the per-leg table only
    ("harness", "_ball_curves", None),
)


class Tracer:
    """Per-function span aggregates and the list of top-level spans."""

    def __init__(self):
        self.stats = {}
        self.legs = []
        self._stack = []   # [start, time covered by traced children]
        self._originals = []

    def _wrap(self, name, fn, counter):
        stats = self.stats.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}})
        stack = self._stack
        legs = self.legs
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = end - frame[0]
                stats["calls"] += 1
                stats["total_s"] += span
                stats["self_s"] += span - frame[1]
                if stack:
                    stack[-1][1] += span
                else:
                    legs.append({"name": name, "start": frame[0], "end": end})
            if counter is not None:
                counts = stats["counts"]
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every TRACED function wherever a flagdim module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "flagdim" or n.startswith("flagdim.")]
        for module_name, fn_name, counter in TRACED:
            original = getattr(sys.modules[f"flagdim.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._originals.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def metrics(self):
        """The per-layer figures, by metric name (without the overhead).

        Call after ``install``; a function never called reads 0.
        """
        def count(name, key):
            return self.stats[name]["counts"].get(key, 0)

        out = {}
        for name, fields in (
                ("ensemble.sample_batch", ("calls", "matrices", "self_s")),
                ("dynamics.batched_orthonormalize",
                 ("calls", "matrices", "self_s")),
                ("dynamics.evolve_flags", ("replica_steps", "self_s")),
                ("dynamics.lyapunov_spectrum", ("total_s",)),
                ("dynamics.stationary_flag_pool",
                 ("calls", "replica_steps", "total_s")),
                ("dynamics.push_flags", ("flag_steps", "self_s", "total_s")),
                ("dynamics.forward_orbit", ("steps", "self_s")),
                ("flagcore.partial_flag", ("calls", "self_s")),
                ("dynamics.circle_map_between", ("calls", "self_s")),
                ("dynamics.stable_coordinates", ("steps", "self_s")),
                ("dynamics.push_arc", ("calls", "self_s")),
                ("dynamics.stationary_orbit", ("steps", "total_s")),
                ("dynamics.interval_decay_curve", ("total_s",)),
                ("measures.kernel_sums", ("queries", "self_s")),
                ("measures.local_dimension", ("calls", "self_s")),
                ("measures.ball_mass", ("calls", "self_s")),
                ("measures.wasserstein_circle", ("self_s",)),
                ("measures.max_cluster_weight", ("self_s",)),
                ("entropy.furstenberg_entropy_d2", ("total_s",)),
                ("entropy.kappa_density_estimator", ("total_s",)),
                ("entropy.conditional_fiber_sample", ("total_s",)),
                ("entropy.kappa_interval_estimator", ("total_s",)),
                ("entropy.dimension_formula_report", ("total_s", "self_s")),
                ("harness.emit_outputs", ("bytes", "total_s"))):
            for f in fields:
                if f in ("calls", "total_s", "self_s"):
                    out[f"{name}.{f}"] = self.stats[name][f]
                else:
                    out[f"{name}.{f}"] = count(name, f)
        out["dynamics.interval_decay_curve.certified_share"] = _share(
            count("dynamics.interval_decay_curve", "certified"),
            count("dynamics.interval_decay_curve", "replicas"))
        for name, metric in (
                ("entropy.furstenberg_entropy_d2", "query_share"),
                ("entropy.kappa_density_estimator", "accepted_share"),
                ("entropy.kappa_interval_estimator", "accepted_share")):
            out[f"{name}.{metric}"] = _share(count(name, "accepted"),
                                             count(name, "attempted"))
        out["entropy.dimension_formula_report.fit_share"] = _share(
            count("entropy.dimension_formula_report", "fits"),
            count("entropy.dimension_formula_report", "attempted"))
        return out
