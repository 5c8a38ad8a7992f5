"""Guards for the developer tools next to the package."""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

from geosaddle import cli

_ROOT = Path(__file__).resolve().parent.parent
_HASHES = _ROOT / "tools" / "output_hashes.py"
_PINNED_HASHES = _ROOT / "tools" / "output_hashes.txt"
_TRACING = _ROOT / "bench" / "tracing.py"
_AB = _ROOT / "tools" / "ab.py"

# Span names of steps and metrics that the planned benchmark revision drops.
_DROPPED_SPANS = {
    "solvers.srceg_step", "solvers.srgda_step", "harness.metric_gradient_norm", "harness.metric_distance_gap",
}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_output_hashes():
    return _load("output_hashes", _HASHES)


def test_output_hashes_commands_pass_validation():
    # A tightened validation would otherwise turn a hash line into an exit-2 line unnoticed.
    parser = cli.build_parser()
    checked = set()
    for _name, argv, _outputs, _stdout in _load_output_hashes().COMMANDS:
        if argv[0] in ("run", "grid-search", "reference"):
            cli._config_from_args(parser.parse_args(argv)).validate()
            checked.add(argv[0])
    assert checked == {"run", "grid-search", "reference"}


def test_output_hashes_match_the_pinned_printout():
    # Every fixed-seed output keeps its bytes unless output_hashes.txt changes with it.
    proc = subprocess.run([sys.executable, str(_HASHES)], capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == _PINNED_HASHES.read_text(encoding="utf-8").splitlines()


def test_bench_span_names_are_public_functions_and_methods():
    # The tracer wraps functions and methods by name; a renamed one would zero its metric or fail a traced sample.
    tracing = _load("tracing", _TRACING)
    names = {*tracing.STEPS, *tracing.FULL_ORACLES, *tracing.DRIVERS, *tracing.SETUP, *tracing.WRITES}
    names |= {"solvers.running_mean_update", "problems.estimate_smoothness", "cli.main"}
    for name in sorted(names - _DROPPED_SPANS):
        layer, attr = name.split(".")
        module = importlib.import_module(f"geosaddle.{layer}")
        fn = vars(module).get(attr)
        assert not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__, name
    for layer, cls_name, attr, _span in tracing.METHODS:
        cls = getattr(importlib.import_module(f"geosaddle.{layer}"), cls_name)
        assert attr in cls.__dict__, (cls_name, attr)


def test_ab_compares_a_checkout_with_itself():
    ab = _load("ab", _AB)
    wl = ab.workloads()["karcher-ref"]
    report = ab.compare(_ROOT, _ROOT, wl.argv(wl.pinned_seed, tiny=True), pairs=1, repeats=1)
    (pair,) = report["pairs"]
    assert pair["base_s"] > 0 and pair["change_s"] > 0 and pair["ratio"] == pair["change_s"] / pair["base_s"]
    assert report["ratio"]["median"] == pair["ratio"]
    assert report["solve_s"]["base"]["median"] == pair["base_s"]
    assert report["solve_s"]["change"]["q3"] == pair["change_s"]
    wins = report["wins"]
    assert wins == {"change": int(pair["change_s"] < pair["base_s"]), "base": int(pair["base_s"] < pair["change_s"])}
    counts = report["counts"]
    assert counts["base"] == counts["change"]
    assert counts["base"]["steps"] > 0 and counts["base"]["eigh_calls"] > 0
    assert counts["base"]["decompositions"] >= counts["base"]["eigh_calls"]
    # Setup runs from cli.main's entry to the first driver call, so it is timed apart from the solve.
    assert pair["base_setup_s"] > 0 and pair["change_setup_s"] > 0
    assert pair["setup_ratio"] == pair["change_setup_s"] / pair["base_setup_s"]
    assert report["setup_ratio"]["median"] == pair["setup_ratio"]
    assert report["setup_s"]["base"]["median"] == pair["base_setup_s"]
    assert report["setup_s"]["change"]["q1"] == pair["change_setup_s"]
    setup_wins = report["setup_wins"]
    assert setup_wins == {
        "change": int(pair["change_setup_s"] < pair["base_setup_s"]),
        "base": int(pair["base_setup_s"] < pair["change_setup_s"]),
    }
    lines = ab.report_lines(report)
    assert lines[-2].startswith("change: ") and "eigh calls" in lines[-2] and "eigvalsh calls" in lines[-2]
    assert counts["base"]["eigvalsh_decompositions"] >= counts["base"]["eigvalsh_calls"] >= 0
    assert lines[-4].startswith(f"setup wins: change {setup_wins['change']} of 1 pairs, base {setup_wins['base']}")
    assert lines[-5].startswith("change setup: median ") and lines[-6].startswith("base setup: median ")
    assert lines[-7].startswith("setup ratio change/base: median ")
    assert lines[-8].startswith(f"solve wins: change {wins['change']} of 1 pairs, base {wins['base']}")
    assert lines[-9].startswith("change solve: median ")
    assert lines[-11].startswith("solve ratio change/base: median ")
    assert "; setup base " in lines[-12]
