"""Spans at geosaddle's layer boundaries, recorded from outside the package.

A traced benchmark sample installs a :class:`Tracer` in the child process
before it calls ``geosaddle.cli.main``. The tracer wraps every public
module-level function of ``manifolds``, ``problems``, ``solvers``,
``harness`` and ``cli``, the public kernel methods of ``Manifold``, the
minibatch oracle and instance generation, plus ``numpy.linalg.eigh`` and
``numpy.linalg.solve`` (so decompositions made privately inside
``problems`` are counted too). Each call becomes a span (name, start, end,
parent, sample id) kept in flat in-memory arrays and written once, when
the sample ends. Nothing under ``src/`` is touched: wrappers are rebound
in every ``geosaddle`` module namespace that holds the original object.

:func:`layer_metrics` turns one sample's spans into the per-layer metrics
(:data:`LAYER_METRICS`) in the parent process. Self time is a span's
duration minus the durations of its direct children. The purpose of an
oracle call comes from its parent span: under a solver step it is a step
call, directly under the driver (``solvers.run`` or
``harness.solve_reference``) or under ``harness.metric_gradient_norm`` it
is a metric call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("manifolds", "problems", "solvers", "harness", "cli")

# Public methods that carry layer work, with the span name each one records.
METHODS = (
    ("manifolds", "Manifold", "exp", "manifolds.exp"),
    ("manifolds", "Manifold", "log", "manifolds.log"),
    ("manifolds", "Manifold", "transport", "manifolds.transport"),
    ("manifolds", "Manifold", "inner", "manifolds.inner"),
    ("manifolds", "Manifold", "norm", "manifolds.norm"),
    ("manifolds", "Manifold", "distance", "manifolds.distance"),
    ("problems", "MinibatchOracle", "__call__", "problems.minibatch"),
    ("problems", "RpcaInstance", "generate", "problems.generate"),
    ("problems", "KarcherInstance", "generate", "problems.generate"),
)
NUMPY_KERNELS = (("eigh", "manifolds.eigh"), ("solve", "manifolds.solve"))

KERNEL_OPS = ("exp", "log", "transport", "inner", "distance")
STEPS = ("solvers.rceg_step", "solvers.srceg_step", "solvers.rgda_step", "solvers.srgda_step")
FULL_ORACLES = ("problems.rpca_grad", "problems.karcher_grad")
DRIVERS = ("solvers.run", "harness.solve_reference")
# Spans that, directly under a driver, are the driver's metric upkeep.
METRIC_SPANS = FULL_ORACLES + (
    "harness.metric_gradient_norm",
    "harness.metric_distance_gap",
    "manifolds.norm",
    "manifolds.inner",
    "manifolds.distance",
)
SETUP = ("harness.build_instance", "harness.build_problem", "harness.build_schedule")
WRITES = ("harness.write_trace_csv", "harness.write_reference")

# Per-layer metric name -> unit.
LAYER_METRICS: dict[str, str] = {}
for _op in KERNEL_OPS:
    LAYER_METRICS[f"manifolds.{_op}.busy_s"] = "s"
    LAYER_METRICS[f"manifolds.{_op}.calls_per_iter"] = "calls/iter"
    LAYER_METRICS[f"manifolds.{_op}.us_per_call"] = "us"
LAYER_METRICS.update(
    {
        "manifolds.eigh.calls_per_iter": "calls/iter",
        "manifolds.eigh.busy_s": "s",
        "manifolds.solve.calls_per_iter": "calls/iter",
        "problems.grad.step_calls_per_iter": "calls/iter",
        "problems.grad.metric_calls_per_iter": "calls/iter",
        "problems.grad.busy_s": "s",
        "problems.grad.ms_per_call": "ms",
        "problems.grad.repeat_share": "ratio",
        "problems.minibatch.calls_per_iter": "calls/iter",
        "problems.minibatch.busy_s": "s",
        "problems.estimate_smoothness.busy_s": "s",
        "problems.generate.busy_s": "s",
        "solvers.step.busy_s": "s",
        "solvers.step.self_s": "s",
        "solvers.average.busy_s": "s",
        "solvers.metrics.busy_s": "s",
        "solvers.run.self_s": "s",
        "solvers.iters": "count",
        "solvers.diverged": "count",
        "harness.setup.busy_s": "s",
        "harness.write.busy_s": "s",
        "harness.write.bytes": "bytes",
        "cli.import_s": "s",
        "cli.self_s": "s",
        "trace.overhead_ratio": "ratio",
    }
)


def rebind(old, new) -> None:
    """Point every ``geosaddle`` module attribute that holds ``old`` at ``new``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "geosaddle" or name.startswith("geosaddle.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


class Boundary:
    """Timestamps the entry and return of the run driver or the reference solve.

    Untraced samples install only this, so their timings carry no tracing
    cost beyond two clock reads.
    """

    def __init__(self) -> None:
        self.entry: float | None = None
        self.exit: float | None = None
        self.iters: int | None = None

    def install(self) -> None:
        import geosaddle.harness as harness
        import geosaddle.solvers as solvers

        rebind(solvers.run, self._stamp(solvers.run, lambda r: len(r[0].rows) - 1))
        rebind(harness.solve_reference, self._stamp(harness.solve_reference, lambda r: r[3]))

    def _stamp(self, fn, iters_of):
        @functools.wraps(fn)
        def stamped(*args, **kwargs):
            self.entry = time.monotonic()
            result = fn(*args, **kwargs)
            self.exit = time.monotonic()
            self.iters = int(iters_of(result))
            return result

        return stamped


def _payload_bytes(*points) -> bytes:
    parts = []
    for p in points:
        parts.extend(p.value if isinstance(p.value, tuple) else (p.value,))
    return b"".join(np.ascontiguousarray(a).tobytes() for a in parts)


class Tracer:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self, sample: int) -> None:
        self.sample = sample
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.repeats = array("b")
        self._stack = [-1]
        # Full-oracle (x, y) payloads seen in the current and previous iteration.
        self._seen_now: set[bytes] = set()
        self._seen_before: set[bytes] = set()

    def _on_step(self, i, args, kwargs) -> None:
        self._seen_before, self._seen_now = self._seen_now, set()

    def _on_full_oracle(self, i, args, kwargs) -> None:
        if kwargs.get("batch") is not None or len(args) > 3:
            return  # minibatch evaluation of rpca_grad
        key = _payload_bytes(args[1], args[2])
        if key in self._seen_now or key in self._seen_before:
            self.repeats[i] = 1
        self._seen_now.add(key)

    def wrap(self, fn, name: str):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        hook = self._on_step if name in STEPS else self._on_full_oracle if name in FULL_ORACLES else None
        ids, parents, starts, ends, repeats, stack = (
            self.ids, self.parents, self.starts, self.ends, self.repeats, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            repeats.append(0)
            if hook is not None:
                hook(i, args, kwargs)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        return traced

    def install(self) -> None:
        import geosaddle.cli  # noqa: F401  (imports every layer)

        for layer in LAYERS:
            mod = sys.modules[f"geosaddle.{layer}"]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ == mod.__name__:
                    rebind(value, self.wrap(value, f"{layer}.{attr}"))
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[f"geosaddle.{layer}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, span)))
            else:
                setattr(cls, attr, self.wrap(raw, span))
        for attr, span in NUMPY_KERNELS:
            setattr(np.linalg, attr, self.wrap(getattr(np.linalg, attr), span))

    def dump(self, path: str) -> None:
        np.savez(
            path,
            name_id=np.frombuffer(self.ids, dtype=np.intc),
            parent=np.frombuffer(self.parents, dtype=np.intc),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            repeat=np.frombuffer(self.repeats, dtype=np.int8),
            sample=np.array(self.sample),
        )


def layer_metrics(spans, names: list[str], child: dict, wall_to_main_end: float) -> tuple[dict, dict]:
    """Per-layer metrics and raw counts of one traced sample.

    ``spans`` holds the arrays :meth:`Tracer.dump` wrote, ``names`` the span
    names by id, ``child`` the child's report. Kernel, oracle and solver
    metrics cover the solve phase (spans inside the driver span); setup,
    write and cli metrics cover the whole sample. Per-iteration figures
    divide by the number of solver steps.
    """
    index = {n: i for i, n in enumerate(names)}
    nid, par = spans["name_id"], spans["parent"]
    start, end = spans["start"], spans["end"]
    dur = end - start
    has_parent = par >= 0
    pnid = np.where(has_parent, nid[np.maximum(par, 0)], -1)
    child_time = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time

    def named(ids, *span_names):
        return np.isin(ids, [index[n] for n in span_names if n in index])

    drivers = np.flatnonzero(named(nid, *DRIVERS))
    if len(drivers) != 1:
        raise ValueError(f"expected one driver span, found {len(drivers)}")
    d = drivers[0]
    in_solve = (start >= start[d]) & (end <= end[d])
    steps = named(nid, *STEPS) & in_solve
    iters = int(steps.sum())
    per_iter = 1.0 / max(iters, 1)

    full = named(nid, *FULL_ORACLES) & ~named(pnid, "problems.minibatch")
    full_solve = full & in_solve
    step_calls = full_solve & named(pnid, *STEPS)
    metric_calls = full_solve & named(pnid, *DRIVERS, "harness.metric_gradient_norm")
    minibatch = named(nid, "problems.minibatch") & in_solve
    eigh = named(nid, "manifolds.eigh") & in_solve
    solve = named(nid, "manifolds.solve") & in_solve

    counts = {
        "iters": iters,
        "grad.step": int(step_calls.sum()),
        "grad.metric": int(metric_calls.sum()),
        "grad.all": int(full.sum()),
        "grad.repeat": int(spans["repeat"][full].sum()),
        "minibatch": int(minibatch.sum()),
        "eigh": int(eigh.sum()),
        "solve": int(solve.sum()),
    }
    m: dict[str, float] = {}
    for op in KERNEL_OPS:
        sel = named(nid, f"manifolds.{op}") & in_solve
        calls, busy = int(sel.sum()), float(dur[sel].sum())
        counts[op] = calls
        m[f"manifolds.{op}.busy_s"] = busy
        m[f"manifolds.{op}.calls_per_iter"] = calls * per_iter
        m[f"manifolds.{op}.us_per_call"] = busy / calls * 1e6 if calls else 0.0
    m["manifolds.eigh.calls_per_iter"] = counts["eigh"] * per_iter
    m["manifolds.eigh.busy_s"] = float(dur[eigh].sum())
    m["manifolds.solve.calls_per_iter"] = counts["solve"] * per_iter

    grad_busy = float(dur[full_solve].sum())
    m["problems.grad.step_calls_per_iter"] = counts["grad.step"] * per_iter
    m["problems.grad.metric_calls_per_iter"] = counts["grad.metric"] * per_iter
    m["problems.grad.busy_s"] = grad_busy
    m["problems.grad.ms_per_call"] = grad_busy / full_solve.sum() * 1e3 if full_solve.any() else 0.0
    m["problems.grad.repeat_share"] = counts["grad.repeat"] / counts["grad.all"] if counts["grad.all"] else 0.0
    m["problems.minibatch.calls_per_iter"] = counts["minibatch"] * per_iter
    m["problems.minibatch.busy_s"] = float(dur[minibatch].sum())
    m["problems.estimate_smoothness.busy_s"] = float(dur[named(nid, "problems.estimate_smoothness")].sum())
    m["problems.generate.busy_s"] = float(dur[named(nid, "problems.generate")].sum())

    under_driver = named(pnid, *DRIVERS)
    m["solvers.step.busy_s"] = float(dur[steps].sum())
    m["solvers.step.self_s"] = float(self_time[steps].sum())
    m["solvers.average.busy_s"] = float(dur[named(nid, "solvers.running_mean_update") & in_solve].sum())
    m["solvers.metrics.busy_s"] = float(dur[under_driver & named(nid, *METRIC_SPANS)].sum())
    m["solvers.run.self_s"] = float(self_time[d])
    m["solvers.iters"] = float(iters)

    setup = named(nid, *SETUP) & ~named(pnid, *SETUP)
    m["harness.setup.busy_s"] = float(dur[setup].sum())
    m["harness.write.busy_s"] = float(dur[named(nid, *WRITES)].sum())

    main_children = named(pnid, "cli.main")
    m["cli.import_s"] = child["import_s"]
    m["cli.self_s"] = (
        wall_to_main_end - child["import_s"] - child["install_s"] - float(dur[main_children].sum())
    )
    return m, counts
