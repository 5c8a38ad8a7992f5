#!/usr/bin/env python3
"""Interleaved A/B timing of one benchmark workload on two checkouts.

Run from the repository root:

    python3 tools/ab.py BASE CHANGE --workload karcher-ref [--pairs 10 --repeats 5]

BASE and CHANGE are checkout roots, each with a ``src/geosaddle`` package.
The workload's argv is read from ``bench/run.py``'s ``WORKLOADS`` next to
this script, at the workload's pinned seed. Each pair runs one fresh child
process per checkout, alternating which side goes first, so drift on a
shared machine falls on both sides. A child imports geosaddle from its
checkout's ``src`` with BLAS pinned to one thread and calls
``geosaddle.cli.main(argv)`` K times in a fresh temporary directory. It
times the solve in process: the outermost call of the run driver
(``solvers.run``) or the reference solve (``harness.solve_reference``).
It also times the setup: from the entry of ``geosaddle.cli.main`` to the
first outermost driver call, which covers the instance, the schedule
(with the estimates of ``--eta auto``) and the start point. The child's
times are the minimum over its K repeats. One more call,
untimed, counts solver steps, ``np.linalg.eigh`` calls and decompositions
(the product of each call's leading dimensions), and the same for
``np.linalg.eigvalsh``, which the SPD exp runs when it checks a point
exactly.

The report gives per pair both solve times and the ratio CHANGE / BASE,
and the same for setup. Then, for the solve and then for the setup, the
median ratio with its quartiles, each side's median time with its
quartiles (both from ``bench/run.py``'s ``_spread``) and how many pairs
each side won (ties count for neither). Then come each side's ``eigh`` and
``eigvalsh`` calls and decompositions per solver step. The last line is
one JSON object with the same figures.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
CHILD_TIMEOUT_S = 600


@functools.cache
def _bench_run():
    """``bench/run.py`` as a module, loaded without running the benchmark."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module's annotations through sys.modules
    spec.loader.exec_module(module)
    return module


def workloads() -> dict:
    """``bench/run.py``'s workloads by name."""
    return _bench_run().WORKLOADS


def _child() -> int:
    """One child process: ``python -c`` entry, args REPORT_JSON REPEATS -- GEOSADDLE_ARGV..."""
    import time

    import numpy as np

    import geosaddle.cli
    import geosaddle.harness as harness
    import geosaddle.solvers as solvers

    from tracing import rebind

    report_path, repeats, argv = sys.argv[1], int(sys.argv[2]), sys.argv[4:]

    times: list[float] = []
    setups: list[float] = []
    entered: list[float] = []  # the perf_counter at cli.main's entry, until the first driver call
    depth = [0]

    def timed(fn):
        def call(*args, **kwargs):
            if depth[0] == 0 and entered:
                setups.append(time.perf_counter() - entered.pop())
            depth[0] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    times.append(time.perf_counter() - t0)

        return call

    for fn in (solvers.run, harness.solve_reference):
        rebind(fn, timed(fn))

    def solve() -> None:
        entered[:] = [time.perf_counter()]
        rc = geosaddle.cli.main(argv)
        if rc != 0:
            raise SystemExit(f"geosaddle exited {rc}")

    for _ in range(repeats):
        solve()
    if len(times) != repeats or len(setups) != repeats:
        raise SystemExit(f"expected one timed setup and solve per repeat, got {len(setups)} and {len(times)}")
    timed_s = {"solve_s": min(times), "setup_s": min(setups)}

    counts = {"steps": 0, "eigh_calls": 0, "decompositions": 0, "eigvalsh_calls": 0, "eigvalsh_decompositions": 0}

    def counted_step(fn):
        def call(*args, **kwargs):
            counts["steps"] += 1
            return fn(*args, **kwargs)

        return call

    def counted(fn, calls, decompositions):
        def call(a, *args, **kwargs):
            counts[calls] += 1
            counts[decompositions] += int(np.prod(np.shape(a)[:-2]))
            return fn(a, *args, **kwargs)

        return call

    for fn in (solvers.rceg_step, solvers.rgda_step):
        rebind(fn, counted_step(fn))
    np.linalg.eigh = counted(np.linalg.eigh, "eigh_calls", "decompositions")
    np.linalg.eigvalsh = counted(np.linalg.eigvalsh, "eigvalsh_calls", "eigvalsh_decompositions")
    solve()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump({**timed_s, "counts": counts}, fh)
    return 0


def _run_child(checkout: Path, argv: list[str], repeats: int) -> dict:
    env = dict(os.environ)
    paths = (str(checkout / "src"), str(TOOLS), str(ROOT / "bench"), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    work = Path(tempfile.mkdtemp(prefix="geosaddle-ab-"))
    try:
        report = work / "report.json"
        code = "import sys, ab; raise SystemExit(ab._child())"
        proc = subprocess.run(
            [sys.executable, "-c", code, str(report), str(repeats), "--", *argv],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"child on {checkout} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return json.loads(report.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)


# Each timed phase: the prefix of its keys in a pair row and in the report, and its name.
_PHASES = (("", "solve"), ("setup_", "setup"))


def compare(base: Path, change: Path, argv: list[str], pairs: int, repeats: int) -> dict:
    """Alternating child pairs of ``argv`` on the two checkouts; the report that :func:`main` prints."""
    if pairs < 1 or repeats < 1:
        raise ValueError("pairs and repeats must be >= 1")
    spread = _bench_run()._spread
    rows = []
    sides: dict[str, dict] = {}
    for i in range(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        got = {side: _run_child(base if side == "base" else change, argv, repeats) for side in order}
        for side, rep in got.items():
            if sides.setdefault(side, rep["counts"]) != rep["counts"]:
                raise RuntimeError(f"{side} counts differ between children: {rep['counts']} vs {sides[side]}")
        b, c = got["base"]["solve_s"], got["change"]["solve_s"]
        sb, sc = got["base"]["setup_s"], got["change"]["setup_s"]
        rows.append({
            "first": order[0], "base_s": b, "change_s": c, "ratio": c / b,
            "base_setup_s": sb, "change_setup_s": sc, "setup_ratio": sc / sb,
        })
    counts = {}
    for side, c in sides.items():
        steps = max(c["steps"], 1)
        counts[side] = {
            **c,
            "eigh_per_step": c["eigh_calls"] / steps,
            "decompositions_per_step": c["decompositions"] / steps,
            "eigvalsh_per_step": c["eigvalsh_calls"] / steps,
            "eigvalsh_decompositions_per_step": c["eigvalsh_decompositions"] / steps,
        }
    report = {"argv": argv, "repeats": repeats, "pairs": rows}
    for prefix, phase in _PHASES:
        report.update(_summary(rows, prefix, phase, spread))
    return {**report, "counts": counts}


def _summary(rows: list[dict], prefix: str, phase: str, spread) -> dict:
    """Ratio, per-side spread and wins of one timed phase."""
    key = {side: f"{side}_{prefix}s" for side in ("base", "change")}
    return {
        f"{prefix}ratio": spread([r[f"{prefix}ratio"] for r in rows]),
        f"{phase}_s": {side: spread([r[key[side]] for r in rows]) for side in key},
        f"{prefix}wins": {
            "change": sum(r[key["change"]] < r[key["base"]] for r in rows),
            "base": sum(r[key["base"]] < r[key["change"]] for r in rows),
        },
    }


def report_lines(report: dict) -> list[str]:
    lines = [f"argv: {' '.join(report['argv'])}"]
    for i, r in enumerate(report["pairs"], start=1):
        lines.append(
            f"pair {i:2d} ({r['first']} first): base {r['base_s']:.4f} s, change {r['change_s']:.4f} s,"
            f" ratio {r['ratio']:.3f}; setup base {r['base_setup_s']:.4f} s, change {r['change_setup_s']:.4f} s,"
            f" ratio {r['setup_ratio']:.3f}"
        )
    for prefix, phase in _PHASES:
        s = report[f"{prefix}ratio"]
        lines.append(
            f"{phase} ratio change/base: median {s['median']:.3f} (q1 {s['q1']:.3f}, q3 {s['q3']:.3f},"
            f" n={s['n']} pairs, min of {report['repeats']} runs per child)"
        )
        for side in ("base", "change"):
            t = report[f"{phase}_s"][side]
            lines.append(f"{side} {phase}: median {t['median']:.4f} s (q1 {t['q1']:.4f}, q3 {t['q3']:.4f})")
        w = report[f"{prefix}wins"]
        lines.append(
            f"{phase} wins: change {w['change']} of {len(report['pairs'])} pairs, base {w['base']}"
            " (ties count for neither)"
        )
    for side in ("base", "change"):
        c = report["counts"][side]
        lines.append(
            f"{side}: {c['eigh_per_step']:.2f} eigh calls and {c['decompositions_per_step']:.1f} decompositions,"
            f" {c['eigvalsh_per_step']:.2f} eigvalsh calls and {c['eigvalsh_decompositions_per_step']:.1f}"
            f" decompositions per step ({c['steps']} steps)"
        )
    return lines + [json.dumps(report, sort_keys=True)]


def main(argv: list[str] | None = None) -> int:
    wls = workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout root of the base side")
    parser.add_argument("change", type=Path, help="checkout root of the change side")
    parser.add_argument("--workload", required=True, choices=sorted(wls))
    parser.add_argument("--pairs", type=int, default=10, help="alternating child pairs (default 10)")
    parser.add_argument("--repeats", type=int, default=5, help="timed solves per child, minimum taken (default 5)")
    args = parser.parse_args(argv)
    wl = wls[args.workload]
    workload_argv = wl.argv(wl.pinned_seed, False)
    report = compare(args.base.resolve(), args.change.resolve(), workload_argv, args.pairs, args.repeats)
    for line in report_lines(report):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
