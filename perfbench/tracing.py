"""Span tracing of allab's layers from outside the package.

A ``Tracer`` replaces each target function with a timing wrapper in every
``allab`` module that binds it (so ``trainer``'s imported ``forward`` is
wrapped as well as ``model.forward``), and puts the originals back on exit.
Spans are kept in memory as ``[name, start, end, parent, attrs]`` and written
out once the run is over.  A target that no longer exists is listed in
``absent`` instead of failing the run.

Counts in ``attrs`` (``rows``, ``mflop``) are computed from array shapes at
the call boundary, not measured: ``mflop`` is 2*n*d*m per affine product.
The tracer assumes one thread, so traced runs use ``jobs=1``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


def _shape_rows(get):
    return {"rows": get("X").shape[0]}


def _forward_attrs(get):
    n = get("X").shape[0]
    return {"rows": n, "mflop": 2e-6 * n * sum(W.size for W, _ in get("params").layers)}


def _affine_backward_attrs(get):
    # dX = dY @ W.T and dW = X.T @ dY, each 2*n*d*m
    return {"mflop": 4e-6 * get("X").shape[0] * get("W").size}


def _acquire_attrs(get):
    return {"method": get("method")}


def _train_round_attrs(get):
    return {"lam": get("config").mmd_weight}


# "module.function" -> what to record about each call (None: time only)
TARGETS = {
    "experiment.run_experiment": None,
    "experiment.run_cell": None,
    "experiment.build_pool": None,
    "experiment.load_dataset": None,
    "dataio.load_mnist": None,
    "dataio.load_csv": None,
    "dataio.synth_blobs": None,
    "dataio.standardize": None,
    "pool.evaluate": None,
    "pool.label_points": None,
    "trainer.train_round": _train_round_attrs,
    "trainer.sgd_step": None,
    "model.forward": _forward_attrs,
    "model.backward": None,
    "model.predict_proba": _shape_rows,
    "model.restore": None,
    "layers.affine_backward": _affine_backward_attrs,
    "layers.softmax_cross_entropy": None,
    "layers.dropout": None,
    "mmd.mmd2_biased_with_grad": None,
    "mmd.median_heuristic": None,
    "acquisition.acquire": _acquire_attrs,
    "acquisition.avg_predict": _shape_rows,
    "seeding.derive_rng": None,
}


def _allab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "allab" or name.startswith("allab."))]


def allab_bindings() -> dict:
    """(module, attribute) -> id of every value bound in a loaded allab module."""
    return {(m.__name__, attr): id(value) for m in _allab_modules()
            for attr, value in vars(m).items()}


class Tracer:
    """Context manager that wraps ``targets`` in the loaded allab modules."""

    def __init__(self, targets: dict = TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = _allab_modules()
        for qualname, annotate in self.targets.items():
            module_name, _, func_name = qualname.partition(".")
            home = sys.modules.get(f"allab.{module_name}")
            original = getattr(home, func_name, None)
            if not inspect.isfunction(original):
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(qualname, original, annotate)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, annotate):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        params = list(inspect.signature(fn).parameters)

        def attrs_of(args, kwargs):
            def get(arg):
                if arg in kwargs:
                    return kwargs[arg]
                return args[params.index(arg)]

            try:
                return annotate(get)
            except (LookupError, ValueError, AttributeError, TypeError):
                return {"unannotated": True}  # signature changed: time only

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    attrs_of(args, kwargs) if annotate else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def write(self, path) -> None:
        """One JSON line per span: id, name, start, end, parent id, attrs."""
        with open(path, "w") as f:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                f.write(json.dumps([i, name, start, end, parent, attrs]) + "\n")


def _ancestor(spans, i, name):
    """Index of the nearest enclosing span called ``name``, or -1."""
    i = spans[i][3]
    while i >= 0 and spans[i][0] != name:
        i = spans[i][3]
    return i


def summarize(spans) -> dict:
    """Per-name calls, busy time (outermost calls only), self time and summed attrs."""
    out: dict[str, dict] = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        if _ancestor(spans, i, name) < 0:
            s["busy_s"] += end - start
        s["self_s"] += end - start - child_time[i]
        for key, value in (attrs or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                s[key] = s.get(key, 0) + value
    return out


# per-layer metric -> unit; every one is printed for every workload
LAYER_METRICS = {
    "model.forward.calls": "count",
    "model.forward.rows": "rows",
    "model.forward.busy_s": "s",
    "model.forward.mflop": "mflop",
    "model.backward.calls": "count",
    "model.backward.busy_s": "s",
    "model.backward.mflop": "mflop",
    "layers.affine_backward.calls": "count",
    "layers.affine_backward.mflop": "mflop",
    "model.predict_proba.calls": "count",
    "model.predict_proba.rows": "rows",
    "model.predict_proba.busy_s": "s",
    "model.restore.calls": "count",
    "model.restore.busy_s": "s",
    "acquisition.avg_predict.rows": "rows",
    "acquisition.avg_predict.busy_s": "s",
    "pool.evaluate.busy_s": "s",
    "trainer.train_round.calls": "count",
    "trainer.train_round.busy_s": "s",
    "trainer.model_share": "ratio",
    "trainer.steps": "count",
    "trainer.self_s": "s",
    "trainer.self_us_per_step": "us",
    "trainer.sgd_step.busy_s": "s",
    "layers.softmax_cross_entropy.busy_s": "s",
    "mmd.mmd2_biased_with_grad.calls": "count",
    "mmd.mmd2_biased_with_grad.busy_s": "s",
    "mmd.useful_ratio": "ratio",
    "mmd.median_heuristic.busy_s": "s",
    "acquisition.acquire.calls": "count",
    "acquisition.acquire.busy_s": "s",
    "acquisition.acquire.share": "ratio",
    "acquisition.acquire.mpts.busy_s": "s",
    "acquisition.acquire.random.busy_s": "s",
    "acquisition.acquire.entropy.busy_s": "s",
    "acquisition.acquire.bald.busy_s": "s",
    "acquisition.acquire.coreset.busy_s": "s",
    "layers.dropout.busy_s": "s",
    "experiment.run_cell.calls": "count",
    "experiment.run_cell.busy_s": "s",
    "experiment.self_s": "s",
    "experiment.build_pool.busy_s": "s",
    "dataio.standardize.calls": "count",
    "dataio.standardize.busy_s": "s",
    "dataio.load.busy_s": "s",
    "seeding.derive_rng.calls": "count",
    "pool.label_points.busy_s": "s",
    "trace.overhead_s": "s",
}

# metrics that must repeat exactly between traced runs of the same inputs
COUNT_METRICS = [m for m, unit in LAYER_METRICS.items()
                 if unit in ("count", "rows", "mflop") or m == "mmd.useful_ratio"]


def layer_metrics(spans) -> dict[str, float]:
    """Every ``LAYER_METRICS`` entry except ``trace.overhead_s`` from one run's spans.

    Functions that were absent or never called read as 0.
    """
    s = summarize(spans)

    def get(name, key):
        return s.get(name, {}).get(key, 0)

    m = {}
    for metric in LAYER_METRICS:
        layer_func, _, key = metric.rpartition(".")
        if layer_func in TARGETS:
            m[metric] = get(layer_func, key)

    in_round = [i for i, sp in enumerate(spans)
                if sp[0] in ("model.forward", "model.backward")
                and _ancestor(spans, i, "trainer.train_round") >= 0
                and _ancestor(spans, i, sp[0]) < 0]
    round_busy = get("trainer.train_round", "busy_s")
    m["trainer.model_share"] = (sum(spans[i][2] - spans[i][1] for i in in_round) / round_busy
                                if round_busy else 0.0)
    m["model.backward.mflop"] = sum(
        sp[4]["mflop"] for i, sp in enumerate(spans)
        if sp[0] == "layers.affine_backward" and sp[4] and "mflop" in sp[4]
        and _ancestor(spans, i, "model.backward") >= 0)

    steps = get("trainer.sgd_step", "calls")
    m["trainer.steps"] = steps
    m["trainer.self_s"] = get("trainer.train_round", "self_s")
    m["trainer.self_us_per_step"] = 1e6 * m["trainer.self_s"] / steps if steps else 0.0

    mmd_calls = [i for i, sp in enumerate(spans) if sp[0] == "mmd.mmd2_biased_with_grad"]
    useful = 0
    for i in mmd_calls:
        r = _ancestor(spans, i, "trainer.train_round")
        if r >= 0 and (spans[r][4] or {}).get("lam", 0) > 0:
            useful += 1
    m["mmd.useful_ratio"] = useful / len(mmd_calls) if mmd_calls else 0.0

    wall = get("experiment.run_experiment", "busy_s")
    m["acquisition.acquire.share"] = get("acquisition.acquire", "busy_s") / wall if wall else 0.0
    for method in ("mpts", "random", "entropy", "bald", "coreset"):
        m[f"acquisition.acquire.{method}.busy_s"] = sum(
            sp[2] - sp[1] for sp in spans
            if sp[0] == "acquisition.acquire" and (sp[4] or {}).get("method") == method)

    m["experiment.self_s"] = (get("experiment.run_experiment", "self_s")
                              + get("experiment.run_cell", "self_s"))
    m["dataio.load.busy_s"] = sum(get(f"dataio.{f}", "busy_s")
                                  for f in ("load_mnist", "load_csv", "synth_blobs"))
    return m
