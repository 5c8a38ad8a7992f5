#!/usr/bin/env python3
"""geosaddle benchmark: fixed-seed CLI workloads, end-to-end timings, traced layers.

Run from the repository root:

  python3 bench/run.py --workload rpca-eg --seed 7 --seconds 40 --trace 0
  python3 bench/run.py --all [--seconds 40] [--record bench/baseline.json]
  python3 bench/run.py --check-counts
  python3 bench/run.py --self-test

Each sample is a fresh child process (child.py) that imports geosaddle from
``src/`` and calls ``geosaddle.cli.main(argv)`` with BLAS pinned to one
thread. Every output is checked: a trace must read back through
``harness.read_trace_csv`` with ``iters + 1`` finite rows, a reference JSON
must hold ``grad_norm <= tol``, and all samples of one invocation must
write the same sha256. A sample fails when it exits non-zero or fails a
check.

Samples run one after another (closed loop, one client) for about
``--seconds``, and at least three of them; a sample that would most likely
end after ``--seconds`` is not started. ``--trace 0`` reports the
end-to-end metrics (medians over samples). ``--trace 1`` runs pairs of one
untraced and one traced sample, alternating which goes first, and reports
the per-layer metrics of tracing.py (medians over traced samples), the
number of samples that diverged (exit code 3) and the tracing overhead
(the median over pairs of traced over untraced wall time). The traced
call counts must repeat exactly. The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--seed`` feeds both the run seed and the instance seed; without it each
workload uses its pinned seed. ``--all`` runs two sets of untraced runs,
each over seeds 1 to 10 with every workload in turn per seed, reports per
metric each set's spread and how much the second set's median is worse
than the first's against the bounds in BENCHMARK.json, then makes one
traced run (three times as long) at the pinned seed and one run at the
held-out seed per workload, and says whether the tracing overhead exceeds
the quartile distance of its pair ratios. It can record all of it, with
output hashes and an environment block, as JSON. ``--check-counts``
compares traced call counts against what the code at the time of writing
does; ``--self-test`` runs tiny sizes and checks that every metric named
in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS, layer_metrics  # noqa: E402

# Layer metrics taken over a whole invocation rather than per traced sample.
PER_INVOCATION = ("solvers.diverged", "trace.overhead_ratio")

CHILD_TIMEOUT_S = 150
MIN_UNITS = 3  # samples, or untraced/traced pairs when traced
HELD_OUT_SEED = 11
# --all: sets of runs, each over these seeds (the held-out seed stays out).
N_SETS = 2
SET_SEEDS = tuple(range(1, 11))

# End-to-end metric name -> unit.
E2E_METRICS = {"setup_s": "s", "solve_s": "s", "wall_s": "s", "iters_per_s": "1/s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # geosaddle subcommand: "run" or "reference"
    args: dict
    tiny: dict  # overrides that shrink the workload for the self-test
    pinned_seed: int
    output: str
    # Call counts the code makes, as functions of the iteration count.
    predicted: dict = field(default_factory=dict)

    def settings(self, tiny: bool) -> dict:
        return {**self.args, **self.tiny} if tiny else dict(self.args)

    def argv(self, seed: int, tiny: bool) -> list[str]:
        out = [self.command]
        for key, value in self.settings(tiny).items():
            out += [f"--{key}", str(value)]
        out += ["--seed", str(seed)]
        if self.command == "run":
            out += ["--data-seed", str(seed)]
        return out + ["--out", self.output]


_RPCA = {"problem": "rpca", "d": 25, "n": 40, "alpha": 6.0}
_RPCA_TINY = {"d": 3, "n": 5, "iters": 5}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rpca-eg",
            command="run",
            args={**_RPCA, "solver": "rceg", "eta": 0.1, "iters": 60},
            tiny=_RPCA_TINY,
            pinned_seed=7,
            output="trace.csv",
            predicted={
                "grad.step": lambda i: 2 * i,
                "grad.metric": lambda i: 2 * i + 1,
                "grad.repeat": lambda i: i + 1,
                "minibatch": lambda i: 0,
                # 176 per step; row 0 adds one gradient (41) and the first
                # average takes its input directly (4 fewer).
                "eigh": lambda i: 176 * i + 37,
            },
        ),
        Workload(
            name="rpca-minibatch",
            command="run",
            args={**_RPCA, "solver": "srceg", "batch-size": 4, "eta": "auto", "a": 1.0, "iters": 100},
            tiny={**_RPCA_TINY, "batch-size": 2},
            pinned_seed=7,
            output="trace.csv",
            predicted={
                "grad.step": lambda i: 0,
                "grad.metric": lambda i: 2 * i + 1,
                "grad.repeat": lambda i: 0,
                "minibatch": lambda i: 2 * i,
            },
        ),
        Workload(
            name="karcher-ref",
            command="reference",
            args={
                "problem": "karcher", "d": 3, "n-anchors": 20, "gamma": 3.0,
                "eta": 0.02, "tol": 1e-10, "max-iters": 2000,
            },
            tiny={"n-anchors": 3, "tol": 1e-6},
            pinned_seed=5,
            output="saddle.json",
            predicted={
                "grad.step": lambda i: 2 * i,
                "grad.metric": lambda i: i // 25 + 1,
                "minibatch": lambda i: 0,
            },
        ),
    )
}


# -- one sample ----------------------------------------------------------------


@dataclass
class Sample:
    traced: bool
    errors: list[str]
    rc: int | None = None  # the child's exit code; None when it timed out
    sha256: str | None = None
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    blas: tuple = (None, None)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def check_output(wl: Workload, tiny: bool, path: Path) -> list[str]:
    """Errors in one sample's output file; empty when it is correct."""
    from geosaddle.harness import read_trace_csv

    settings = wl.settings(tiny)
    if not path.is_file():
        return [f"{path.name} was not written"]
    if wl.command == "reference":
        try:
            gn = json.loads(path.read_text(encoding="utf-8"))["grad_norm"]
        except (ValueError, KeyError) as e:
            return [f"reference JSON unreadable: {e!r}"]
        if not (isinstance(gn, float) and gn <= float(settings["tol"])):
            return [f"reference grad_norm {gn!r} above tol {settings['tol']}"]
        return []
    try:
        meta, trace = read_trace_csv(str(path))
    except (OSError, ValueError) as e:
        return [f"trace unreadable: {e!r}"]
    errors = []
    if meta.get("status") != "ok":
        errors.append(f"trace status {meta.get('status')!r}")
    if [r.iter for r in trace.rows] != list(range(settings["iters"] + 1)):
        errors.append(f"trace has {len(trace.rows)} rows, expected {settings['iters'] + 1}")
    for r in trace.rows:
        if not all(math.isfinite(v) for v in vars(r).values() if v is not None):
            errors.append(f"non-finite value in trace row {r.iter}")
            break
    return errors


def run_sample(wl: Workload, seed: int, sample_id: int, traced: bool, workdir: Path, tiny: bool) -> Sample:
    report = workdir / f"sample-{sample_id}.json"
    out = workdir / wl.output
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(report), str(sample_id), str(int(traced)), "--", *wl.argv(seed, tiny)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=workdir, env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Sample(traced, [f"sample timed out after {CHILD_TIMEOUT_S} s"])
    t_exit = time.monotonic()
    if proc.returncode != 0:
        return Sample(traced, [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"], proc.returncode)
    errors = check_output(wl, tiny, out)
    if errors:
        return Sample(traced, errors, 0)
    rep = json.loads(report.read_text(encoding="utf-8"))
    solve_s = rep["solve_exit"] - rep["solve_entry"]
    sample = Sample(
        traced,
        [],
        0,
        sha256=hashlib.sha256(out.read_bytes()).hexdigest(),
        e2e={
            "setup_s": rep["solve_entry"] - t_spawn,
            "solve_s": solve_s,
            "wall_s": t_exit - t_spawn,
            "iters_per_s": rep["iters"] / solve_s,
            "peak_rss_mb": rep["peak_rss_kb"] / 1024.0,
        },
        blas=(rep["blas_lib"], rep["blas_threads"]),
    )
    if traced:
        import numpy as np

        try:
            with np.load(f"{report}.npz") as spans:
                sample.layers, sample.counts = layer_metrics(spans, rep["names"], rep, rep["main_end"] - t_spawn)
        except ValueError as e:
            return Sample(traced, [f"spans unusable: {e}"], 0)
        sample.layers["harness.write.bytes"] = float(out.stat().st_size)
    return sample


# -- one invocation --------------------------------------------------------------


def _spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


@dataclass
class Measurement:
    workload: str
    seed: int
    traced: bool
    samples: list[Sample]
    # (untraced, traced) sample indices of each adjacent pair in a traced invocation.
    pairs: list[tuple[int, int]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    e2e: dict = field(default_factory=dict)  # name -> _spread
    layers: dict = field(default_factory=dict)  # name -> median
    overhead: dict = field(default_factory=dict)  # _spread of the pair ratios
    counts: dict = field(default_factory=dict)
    sha256: str | None = None

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s.errors)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.errors

    def summarize(self) -> None:
        ok = [s for s in self.samples if not s.errors]
        if ok:
            self.sha256 = ok[0].sha256
        for s in ok:
            if s.sha256 != self.sha256:
                s.errors.append(f"output sha256 {s.sha256} differs from {self.sha256}")
        ok = [s for s in ok if not s.errors]
        plain = [s for s in ok if not s.traced]
        traced = [s for s in ok if s.traced]
        if not plain:
            self.errors.append("no untraced sample succeeded")
            return
        self.e2e = {name: _spread([s.e2e[name] for s in plain]) for name in E2E_METRICS}
        if not self.traced:
            return
        ratios = [
            self.samples[t].e2e["wall_s"] / self.samples[u].e2e["wall_s"]
            for u, t in self.pairs
            if not (self.samples[u].errors or self.samples[t].errors)
        ]
        if not ratios:
            self.errors.append("no untraced/traced pair succeeded")
            return
        self.counts = traced[0].counts
        for s in traced[1:]:
            if s.counts != self.counts:
                self.errors.append(f"traced counts differ between samples: {s.counts} vs {self.counts}")
        self.layers = {
            name: statistics.median(s.layers[name] for s in traced)
            for name in LAYER_METRICS
            if name not in PER_INVOCATION
        }
        # Exit code 3 is a numeric failure; such samples also count in ``failed``.
        self.layers["solvers.diverged"] = float(sum(s.rc == 3 for s in self.samples))
        self.overhead = _spread(ratios)
        self.layers["trace.overhead_ratio"] = self.overhead["median"]

    def metrics(self) -> dict:
        if self.traced:
            return {name: {"value": v, "unit": LAYER_METRICS[name]} for name, v in self.layers.items()}
        return {name: {"value": v["median"], "unit": E2E_METRICS[name]} for name, v in self.e2e.items()}


def measure(wl: Workload, seed: int, seconds: float, traced: bool, tiny: bool = False) -> Measurement:
    """Closed-loop samples of one workload for about ``seconds``.

    Once the minimum is reached, sampling stops before a unit (a sample,
    or for a traced invocation an untraced/traced pair) that would most
    likely end after ``seconds``. Pairs alternate which sample goes first,
    so drift within a pair cancels across pairs in the overhead ratio.
    """
    samples: list[Sample] = []
    pairs: list[tuple[int, int]] = []
    durations: list[float] = []
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        started = time.monotonic()
        while len(durations) < MIN_UNITS or time.monotonic() - started + statistics.median(durations) <= seconds:
            t0 = time.monotonic()
            if traced:
                order = (False, True) if len(pairs) % 2 == 0 else (True, False)
                first = len(samples)
                for trace_this in order:
                    samples.append(run_sample(wl, seed, len(samples), trace_this, workdir, tiny))
                pairs.append((first, first + 1) if order[1] else (first + 1, first))
            else:
                samples.append(run_sample(wl, seed, len(samples), False, workdir, tiny))
            durations.append(time.monotonic() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    m = Measurement(wl.name, seed, traced, samples, pairs)
    m.summarize()
    return m


# -- reporting -------------------------------------------------------------------


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def environment(measurements: list[Measurement]) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = None
    lib, threads = next((s.blas for m in measurements for s in m.samples if not s.errors), (None, None))
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_build,
        "blas_lib": lib,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seeds": {m.workload: m.seed for m in measurements},
        "held_out_seed": HELD_OUT_SEED,
    }


def report_lines(m: Measurement) -> list[str]:
    """One line per metric: workload, name, value and unit, then the spread."""
    lines = []
    if m.traced:
        for name, value in m.layers.items():
            line = f"{m.workload} {name} = {value:.6g} {LAYER_METRICS[name]}"
            if name == "trace.overhead_ratio":
                o = m.overhead
                line += f"  (q1 {o['q1']:.6g}, q3 {o['q3']:.6g}, n={o['n']} pairs)"
            lines.append(line)
    else:
        for name, s in m.e2e.items():
            lines.append(
                f"{m.workload} {name} = {s['median']:.6g} {E2E_METRICS[name]}"
                f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})"
            )
    lines.append(f"{m.workload} fail_rate = {m.failed / m.attempted:.6g} ratio  ({m.failed} of {m.attempted})")
    return lines


def print_errors(m: Measurement) -> None:
    for i, s in enumerate(m.samples):
        for e in s.errors:
            print(f"{m.workload} sample {i}: {e}", file=sys.stderr)
    for e in m.errors:
        print(f"{m.workload}: {e}", file=sys.stderr)


def summary(m: Measurement) -> dict:
    return {
        "seed": m.seed,
        "attempted": m.attempted,
        "failed": m.failed,
        "fail_rate": m.failed / m.attempted,
        "sha256": m.sha256,
        "e2e": m.e2e,
        "layers": m.layers,
        "overhead_ratio": m.overhead,
        "counts": m.counts,
    }


# -- modes -----------------------------------------------------------------------


def cmd_workload(wl: Workload, seed: int, seconds: float, traced: bool) -> int:
    m = measure(wl, seed, seconds, traced)
    print_errors(m)
    for line in report_lines(m):
        print(line)
    print(f"{wl.name} sha256 = {m.sha256}")
    if m.counts:
        print(f"{wl.name} counts = {json.dumps(m.counts, sort_keys=True)}")
    print("env " + json.dumps(environment([m]), sort_keys=True))
    result = {"correct": m.correct, "attempted": m.attempted, "failed": m.failed, "metrics": m.metrics()}
    print(json.dumps(result))
    return 0 if m.attempted > m.failed else 1


def _worse_share(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    return (second - first) / first if better == "lower" else (first - second) / first


def cmd_all(seconds: float, record: str | None) -> int:
    """Two sets of untraced runs over SET_SEEDS, then one traced and one held-out run per workload.

    Within a set, each seed runs every workload in turn, so drift over
    minutes reaches all workloads alike. For each end-to-end metric the
    run medians of a set give its spread (quartile distance over median),
    and the second set's median is compared with the first's; both are
    checked against the bounds in BENCHMARK.json (setup_s only for the
    latter).
    """
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}
    sets: dict[str, list[list[Measurement]]] = {name: [[] for _ in range(N_SETS)] for name in WORKLOADS}
    measured: list[Measurement] = []
    for k in range(N_SETS):
        for seed in SET_SEEDS:
            for wl in WORKLOADS.values():
                m = measure(wl, seed, seconds, False)
                print_errors(m)
                measured.append(m)
                sets[wl.name][k].append(m)
                medians = {name: round(v["median"], 5) for name, v in m.e2e.items()}
                print(f"set {k + 1} seed {seed} {wl.name} failed {m.failed}/{m.attempted} {json.dumps(medians)}", flush=True)

    ok = all(m.correct for m in measured)
    results: dict[str, dict] = {}
    for wl in WORKLOADS.values():
        # Tracing costs a few percent, less than two adjacent samples differ
        # on a shared machine, so the overhead needs more pairs than one run.
        traced = measure(wl, wl.pinned_seed, 3 * seconds, True)
        held_out = measure(wl, HELD_OUT_SEED, seconds, False)
        for m in (traced, held_out):
            print_errors(m)
            ok &= m.correct
        entry = {"sets": [], "median_worse_share": {}, "traced": summary(traced), "held_out": summary(held_out)}
        print(f"== {wl.name}")
        for k, ms in enumerate(sets[wl.name]):
            runs = [{"seed": m.seed, "attempted": m.attempted, "failed": m.failed, "sha256": m.sha256,
                     **{name: v["median"] for name, v in m.e2e.items()}} for m in ms if m.e2e]
            stats = {}
            for name in E2E_METRICS:
                s = _spread([r[name] for r in runs])
                stats[name] = {**s, "spread": (s["q3"] - s["q1"]) / s["median"]}
            entry["sets"].append({"runs": runs, "stats": stats})
        for name, metric in spec.items():
            first, second = (st["stats"][name] for st in entry["sets"])
            worse = _worse_share(first["median"], second["median"], metric["better"])
            entry["median_worse_share"][name] = worse
            spreads = [st["stats"][name]["spread"] for st in entry["sets"]]
            over = worse > metric["bound"] or (name != "setup_s" and max(spreads) > metric["bound"])
            ok &= not over
            print(f"  {name}: medians {first['median']:.6g} / {second['median']:.6g} {E2E_METRICS[name]}, "
                  f"spreads {spreads[0]:.3f} / {spreads[1]:.3f}, second worse by {worse:+.3f}, "
                  f"bound {metric['bound']}{'  OVER' if over else ''}")
        o = traced.overhead
        resolved = bool(o) and o["q3"] - o["q1"] < o["median"] - 1
        print(f"  trace.overhead_ratio {'resolved' if resolved else 'not resolved'}: median {o.get('median', 0):.4f}, "
              f"quartiles {o.get('q1', 0):.4f} to {o.get('q3', 0):.4f} over {o.get('n', 0)} pairs")
        entry["overhead_resolved"] = resolved
        for tag, m in (("traced", traced), ("held-out", held_out)):
            print(f"  [{tag} seed {m.seed}]")
            for line in report_lines(m) + [f"{wl.name} sha256 = {m.sha256}"]:
                print("    " + line)
        results[wl.name] = entry
    env = environment(measured)
    env["seeds"] = {"sets": list(SET_SEEDS), "traced": {w.name: w.pinned_seed for w in WORKLOADS.values()}}
    print("env " + json.dumps(env, sort_keys=True))
    if record:
        payload = {"env": env, "seconds": seconds, "workloads": results}
        Path(record).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded to {record}")
    return 0 if ok else 1


def cmd_check_counts() -> int:
    """Traced counts at the pinned seeds: repeatable, and as the code predicts."""
    ok = True
    for wl in WORKLOADS.values():
        m = measure(wl, wl.pinned_seed, 0, True)
        print_errors(m)
        if not m.correct:
            print(f"FAIL {wl.name}: traced samples failed or their counts differ")
            ok = False
            continue
        print(f"PASS {wl.name}: counts identical across {sum(s.traced for s in m.samples)} traced samples")
        iters = m.counts["iters"]
        for key, predict in wl.predicted.items():
            want, got = predict(iters), m.counts[key]
            ok &= want == got
            print(f"{'PASS' if want == got else 'FAIL'} {wl.name}: {key} = {got}, predicted {want} at {iters} iters")
        print(f"     {wl.name}: eigh per iter {m.layers['manifolds.eigh.calls_per_iter']:.2f}, "
              f"repeat_share {m.layers['problems.grad.repeat_share']:.4f}")
    return 0 if ok else 1


def cmd_self_test() -> int:
    """Tiny sizes: every metric in BENCHMARK.json is printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    missing = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        missing.append(f"BENCHMARK.json workloads differ from {list(WORKLOADS)}")
    for wl in WORKLOADS.values():
        for traced, section in ((False, "end_to_end"), (True, "per_layer")):
            m = measure(wl, wl.pinned_seed, 0, traced, tiny=True)
            print_errors(m)
            lines = report_lines(m)
            for line in lines:
                print(line)
            if not m.correct:
                missing.append(f"{wl.name}: tiny {section} run failed")
            for metric in spec[section] + [{"name": "fail_rate", "unit": "ratio"}]:
                pattern = rf"^{re.escape(wl.name)} {re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])}\b"
                if not any(re.match(pattern, line) for line in lines):
                    missing.append(f"{wl.name}: {metric['name']} [{metric['unit']}] not printed")
            if set(m.metrics()) != {x["name"] for x in spec[section]}:
                missing.append(f"{wl.name}: {section} metrics {sorted(m.metrics())} differ from BENCHMARK.json")
    for problem in missing:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if missing else "passed"))
    return 1 if missing else 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true", help="two 10-seed sets of every workload, checked against the bounds; traced and held-out runs")
    mode.add_argument("--check-counts", action="store_true", help="traced call counts against the code's predictions")
    mode.add_argument("--self-test", action="store_true", help="tiny sizes; every metric printed with its unit")
    p.add_argument("--seed", type=int, default=None, help="with --workload: its seed (default: the workload's pinned seed)")
    p.add_argument("--seconds", type=float, default=40.0, help="measure at least this long per invocation")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from traced samples")
    p.add_argument("--record", default=None, help="with --all: write the results as JSON to this path")
    args = p.parse_args(argv)

    if not (SRC / "geosaddle" / "cli.py").is_file():
        print(f"error: geosaddle sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import geosaddle.cli  # noqa: F401  (compiles the bytecode the samples load)

    if args.all:
        return cmd_all(args.seconds, args.record)
    if args.check_counts:
        return cmd_check_counts()
    if args.self_test:
        return cmd_self_test()
    wl = WORKLOADS[args.workload]
    return cmd_workload(wl, wl.pinned_seed if args.seed is None else args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
