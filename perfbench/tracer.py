"""Outside-in tracer: per-layer spans recorded around calls into hmmrisk's
public functions, without editing the package.

``hmmrisk_wrappers`` wraps each function in ``TARGETS``; ``install`` rebinds
every name that refers to it in every loaded ``hmmrisk.*`` module, including
entries of module-level dicts such as the decoder registry, because modules
import functions by name (``decoders`` holds its own ``best_path``).
``uninstall`` puts the original objects back.  A wrapper records a span
only while ``Tracer.context`` is set, so checks run between ops pass
straight through.

Spans live in memory (id, parent id, op, cycle, name, start, end, steps,
argument key, error) and are written out when the run ends.  A span's self
time is its duration minus the durations of its child spans, which are
disjoint because the client is single-threaded.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.context: dict | None = None  # {"op": id, "cycle": n} while an op runs
        self._stack: list[dict] = []

    def wrap(self, name: str, fn, annotate=None):
        """Return ``fn`` wrapped to record a span named ``name``.

        ``annotate(args, kwargs)``, if given, returns fields merged into the
        span: ``steps`` for a per-step kernel, ``key`` (a digest of the
        argument set) and ``window_bytes``.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.context is None:
                return fn(*args, **kwargs)
            span = {
                "id": len(tracer.spans),
                "parent": tracer._stack[-1]["id"] if tracer._stack else None,
                **tracer.context,
                "name": name,
                "error": None,
                **(annotate(args, kwargs) if annotate else {}),
            }
            tracer.spans.append(span)
            tracer._stack.append(span)
            span["start"] = tracer.clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = tracer.clock()
                tracer._stack.pop()

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in self.spans)


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds, steps, errors, the
    largest window_bytes, and the number of distinct (cycle, argument key)
    pairs."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, dict] = {}
    keys = defaultdict(set)
    for span in spans:
        row = out.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "steps": 0, "errors": 0})
        duration = span["end"] - span["start"]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time[span["id"]]
        row["steps"] += span.get("steps", 0)
        row["errors"] += span["error"] is not None
        if "window_bytes" in span:
            row["window_bytes"] = max(row.get("window_bytes", 0), span["window_bytes"])
        if "key" in span:
            keys[span["name"]].add((span["cycle"], span["key"]))
    for name, seen in keys.items():
        out[name]["distinct"] = len(seen)
    return out


def install(targets: dict) -> list[tuple]:
    """Rebind every reference to each ``targets`` original in the loaded
    hmmrisk modules.  ``targets`` maps original function -> wrapper.
    Returns the undo log for ``uninstall``."""
    by_id = {id(fn): (fn, wrapper) for fn, wrapper in targets.items()}

    def replacement(value):
        hit = by_id.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else None

    undo = []
    modules = [m for name, m in list(sys.modules.items()) if name == "hmmrisk" or name.startswith("hmmrisk.")]
    for module in modules:
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            wrapper = replacement(value)
            if wrapper is not None:
                undo.append((namespace, attr, value))
                namespace[attr] = wrapper
            elif isinstance(value, dict) and not attr.startswith("__"):
                for entry, item in list(value.items()):
                    wrapper = replacement(item)
                    if wrapper is not None:
                        undo.append((value, entry, item))
                        value[entry] = wrapper
    return undo


def uninstall(undo: list[tuple]) -> None:
    for container, key, original in reversed(undo):
        container[key] = original


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _model_arrays(model) -> list:
    emission = model.emission
    params = [getattr(emission, attr) for attr in ("table", "means", "variances") if hasattr(emission, attr)]
    return [model.initial, model.transition, *params]


def _horizon(args, kwargs):
    return {"steps": int(_arg(args, kwargs, 1, "horizon"))}


def _obs_steps(args, kwargs):
    return {"steps": len(_arg(args, kwargs, 1, "obs"))}


def _prior(args, kwargs):
    horizon = int(_arg(args, kwargs, 1, "horizon"))
    model = _arg(args, kwargs, 0, "model")
    return {"steps": horizon, "key": _digest(*_model_arrays(model), np.asarray(horizon))}


def _emission(args, kwargs):
    model, obs = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "obs")
    return {"steps": len(obs), "key": _digest(*_model_arrays(model), np.asarray(obs))}


def _best_path(args, kwargs):
    return {"steps": len(_arg(args, kwargs, 0, "gains"))}


def _rabiner(args, kwargs):
    summary, k = _arg(args, kwargs, 0, "summary"), int(_arg(args, kwargs, 1, "k"))
    horizon, num_states = summary.horizon, summary.num_states
    return {"steps": horizon, "window_bytes": (horizon - k + 1) * num_states**k * 8}


def _paths_steps(args, kwargs):
    return {"steps": int(np.asarray(_arg(args, kwargs, 1, "paths")).size)}


# module.function -> annotate function (None: record the span only).
TARGETS = {
    "model.sample_trajectory": _horizon,
    "model.prior_marginals": _prior,
    "inference.emission_likelihood": _emission,
    "inference.forward_backward": _obs_steps,
    "lattice.best_path": _best_path,
    "decoders.hybrid_decode": None,
    "decoders.combined_score_tables": None,
    "decoders.pmap_decode": None,
    "decoders.pvd_decode": None,
    "decoders.rabiner_block_decode": _rabiner,
    "risk.evaluate_risks": None,
    "risk.rabiner_gain_batch": _paths_steps,
    "transform.transformed_forward_backward": _obs_steps,
    "transform.symbol_by_symbol_decode": None,
    "labelling.label_decode": None,
    "sim.estimate_risk_trajectories": None,
    "sim.sandwich_constant_sweep": None,
    "io.load_model": None,
    "io.load_observations": None,
    "cli.main": None,
}
# Per-step kernels get a us_per_step metric; these two a distinct_frac.
STEP_KERNELS = tuple(name for name, fn in TARGETS.items() if fn is not None)
DISTINCT = ("model.prior_marginals", "inference.emission_likelihood")


def hmmrisk_wrappers(tracer: Tracer) -> dict:
    """Map each TARGETS function of the loaded package to its traced wrapper."""
    wrappers = {}
    for qualified, annotate in TARGETS.items():
        module_name, attr = qualified.split(".")
        original = getattr(sys.modules[f"hmmrisk.{module_name}"], attr)
        wrappers[original] = tracer.wrap(qualified, original, annotate)
    return wrappers
