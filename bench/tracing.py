"""In-memory spans around the calls into each rydqubo layer.

The program is not edited: ``instrument`` rebinds every public module-level
function of a layer module, in every rydqubo namespace that refers to it, to
a wrapper that records a span.  ``optimizer.minimize`` (scipy, called by the
optimizer stages) is wrapped too, so a stage shows up as its own span.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("problems", "models", "hardness", "encoding", "annealer",
          "optimizer", "pipeline")

# span record fields
NAME, START, END, PARENT, ATTRS = range(5)


class Tracer:
    """Spans as [name, start, end, parent index, attrs], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.bookkeeping_s = 0.0

    def open(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int, attrs: dict | None = None) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.spans[idx][ATTRS] = attrs
        self._stack.pop()

    def wrap(self, name: str, fn, annotate=None):
        """``fn`` recording a span per call; ``annotate(args, kwargs, result)``
        gives its attributes (result is None when the call raised)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            idx = self.open(name)
            span = self.spans[idx]
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                self.close(idx)
                attrs = annotate(args, kwargs, result) if annotate else {}
                if error is not None:
                    attrs["error"] = error
                span[ATTRS] = attrs or None
                self.bookkeeping_s += (span[START] - t_in) + (time.perf_counter() - span[END])

        return traced


def _annotators(package) -> dict:
    """Span attributes for the calls the per-layer metrics need."""
    default_cfg = package.annealer.PropagationConfig()

    def propagate(args, kwargs, result):
        schedule = kwargs.get("schedule", args[1] if len(args) > 1 else None)
        cfg = kwargs.get("cfg", args[2] if len(args) > 2 else default_cfg)
        intervals = schedule.sample_count - 1
        steps = intervals * max(1, -(-cfg.initial_steps // intervals))
        return {"adaptive": bool(cfg.adaptive), "steps": steps}

    def run_hybrid(args, kwargs, result):
        if result is None:
            return {}
        best, improving = float("inf"), 0
        for e in (e for stage in result.stage_history for e in stage):
            if e < best:
                best, improving = e, improving + 1
        return {"evaluations": result.evaluations, "improving": improving}

    return {
        "annealer.propagate": propagate,
        "optimizer.run_hybrid": run_hybrid,
        "optimizer.minimize": lambda a, k, r: {"method": k.get("method")},
        "models.enumerate_spectrum":
            lambda a, k, r: {} if r is None else {"states": 1 << r.n},
        "hardness.cluster_subspaces":
            lambda a, k, r: {} if r is None else {"subspaces": len(r)},
        "encoding.embed_layout":
            lambda a, k, r: {} if r is None else {"residual": r[1].max_rel_error},
    }


def instrument(tracer: Tracer, package):
    """Wrap the layers' public functions; returns a function that undoes it."""
    modules = {name: getattr(package, name) for name in LAYERS}
    annotators = _annotators(package)
    wrapped = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                key = f"{layer}.{name}"
                wrapped[id(obj)] = tracer.wrap(key, obj, annotators.get(key))
    restore = []
    for ns in (package, *modules.values()):
        for name, obj in list(vars(ns).items()):
            if id(obj) in wrapped:
                restore.append((ns, name, obj))
                setattr(ns, name, wrapped[id(obj)])
    optimizer = modules["optimizer"]
    restore.append((optimizer, "minimize", optimizer.minimize))
    optimizer.minimize = tracer.wrap("optimizer.minimize", optimizer.minimize,
                                     annotators["optimizer.minimize"])

    def undo():
        for ns, name, obj in restore:
            setattr(ns, name, obj)
    return undo


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def check_nesting(spans: list) -> list[str]:
    """Problems found: children outside parents or negative self times."""
    problems = []
    for i, s in enumerate(spans):
        if s[END] is None or s[END] < s[START]:
            problems.append(f"span {i} {s[NAME]} has no valid end")
            continue
        p = s[PARENT]
        if p is not None and not (spans[p][START] <= s[START] and s[END] <= spans[p][END]):
            problems.append(f"span {i} {s[NAME]} lies outside its parent {spans[p][NAME]}")
    for i, st in enumerate(self_times(spans)):
        if st < 0:
            problems.append(f"span {i} {spans[i][NAME]} has self time {st}")
    return problems


# spans whose presence among a span's ancestors the per-layer metrics test
MARKERS = ("bench.op", "bench.setup", "optimizer.finite_difference_gradient",
           "pipeline.run_pipeline")


def layer_metrics(spans: list, passes: int) -> tuple[dict, dict]:
    """Per-layer metrics per pass, plus each layer's self time per pass.

    Seconds and counts are divided by the number of passes; ``problems.build_s``
    is the builders' time in one set-up.
    """
    selfs = self_times(spans)
    above: list[frozenset] = []       # layers and markers among the ancestors
    t = dict.fromkeys(("fixed_calls", "fixed_s", "fixed_steps", "adaptive_calls",
                       "adaptive_s", "failures", "evals", "improving",
                       "gradient_calls", "gradient_evals", "gradient_s",
                       "simplex_s", "final_propagations", "spectrum_calls",
                       "spectrum_s", "states", "analyze_s", "subspaces",
                       "encode_s", "layout_calls", "layout_s", "build_s"), 0)
    layer_self: dict[str, float] = {}
    residual_max = 0.0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        layer, _, fn = name.partition(".")
        attrs = attrs or {}
        up = above[parent] if parent is not None else frozenset()
        above.append(up | {layer} | ({name} if name in MARKERS else set()))
        dur = end - start
        outermost = layer not in up
        if "bench.op" in up or name == "bench.op":
            layer_self[layer] = layer_self.get(layer, 0.0) + selfs[i]
        if name == "annealer.propagate":
            if attrs.get("error") == "AnnealerError":
                t["failures"] += 1
            if attrs.get("adaptive"):
                t["adaptive_calls"] += 1
                t["adaptive_s"] += dur
                t["final_propagations"] += "pipeline.run_pipeline" in up
            else:
                t["fixed_calls"] += 1
                t["fixed_s"] += dur
                t["fixed_steps"] += attrs["steps"]
                t["gradient_evals"] += "optimizer.finite_difference_gradient" in up
        elif name == "optimizer.finite_difference_gradient":
            t["gradient_calls"] += 1
            t["gradient_s"] += dur
        elif name == "optimizer.minimize" and attrs.get("method") == "Nelder-Mead":
            t["simplex_s"] += dur
        elif name == "optimizer.run_hybrid" and "evaluations" in attrs:
            t["evals"] += attrs["evaluations"]
            t["improving"] += attrs["improving"]
        elif name == "models.enumerate_spectrum":
            t["spectrum_calls"] += 1
            t["spectrum_s"] += dur
            t["states"] += attrs.get("states", 0)
        elif name == "hardness.cluster_subspaces":
            t["subspaces"] += attrs.get("subspaces", 0)
        if layer == "hardness" and outermost:
            t["analyze_s"] += dur
        elif layer == "encoding" and outermost:
            if fn in ("embed_layout", "validate"):
                t["layout_s"] += dur
                t["layout_calls"] += fn == "embed_layout"
                residual_max = max(residual_max, attrs.get("residual", 0.0))
            else:
                t["encode_s"] += dur
        elif layer == "problems" and outermost and "bench.setup" in up:
            t["build_s"] += dur
    per = 1.0 / passes
    metrics = {
        "annealer.fixed_calls": t["fixed_calls"] * per,
        "annealer.fixed_s": t["fixed_s"] * per,
        "annealer.fixed_us_per_step": 1e6 * t["fixed_s"] / t["fixed_steps"]
        if t["fixed_steps"] else 0.0,
        "annealer.adaptive_calls": t["adaptive_calls"] * per,
        "annealer.adaptive_s": t["adaptive_s"] * per,
        "annealer.failures": t["failures"] * per,
        "optimizer.evals": t["evals"] * per,
        "optimizer.gradient_calls": t["gradient_calls"] * per,
        "optimizer.gradient_evals": t["gradient_evals"] * per,
        "optimizer.gradient_s": t["gradient_s"] * per,
        "optimizer.simplex_s": t["simplex_s"] * per,
        "optimizer.self_s": layer_self.get("optimizer", 0.0) * per,
        "optimizer.improving_frac": t["improving"] / t["evals"] if t["evals"] else 0.0,
        "pipeline.final_propagations": t["final_propagations"] * per,
        "pipeline.self_s": layer_self.get("pipeline", 0.0) * per,
        "models.spectrum_calls": t["spectrum_calls"] * per,
        "models.spectrum_s": t["spectrum_s"] * per,
        "models.states": t["states"] * per,
        "hardness.analyze_s": t["analyze_s"] * per,
        "hardness.subspaces": t["subspaces"] * per,
        "encoding.encode_s": t["encode_s"] * per,
        "encoding.layout_calls": t["layout_calls"] * per,
        "encoding.layout_s": t["layout_s"] * per,
        "encoding.layout_residual_max": residual_max,
        "problems.build_s": t["build_s"],
    }
    return metrics, {k: v * per for k, v in layer_self.items()}
