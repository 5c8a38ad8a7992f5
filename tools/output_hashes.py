"""Print the sha256 of every output of a fixed list of fixed-seed CLI commands.

Run it on two checkouts and diff the printouts to show that a change keeps
every subcommand's output byte-identical:

    python3 tools/output_hashes.py > before.txt   # on the old checkout
    python3 tools/output_hashes.py > after.txt    # on the new one
    diff before.txt after.txt

Each command runs as ``python -m geosaddle`` from the ``src/`` directory next
to this script, in order, in one temporary directory, with BLAS pinned to one
thread. Later commands read earlier outputs (``--init-from``, ``--instance``,
``plot``). Output lines are ``<sha256>  <file>``, with ``<file>.stdout`` for a
command whose standard output is an output, plus ``exit <code>  <name>`` for
every command that does not exit 0. The printout of this tree is pinned in
``output_hashes.txt`` next to this script, and ``tests/test_tools.py``
compares a fresh printout with it; a change that moves bytes updates that
file in the same commit, so the file's diff lists the outputs it moved.
Uses only the standard library.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Problem flags only: ``reference`` takes no ``--iters``, so run and grid-search add it.
_RPCA = ["--problem", "rpca", "--d", "5", "--n", "8", "--alpha", "3.0", "--seed", "7"]
_KARCHER = ["--problem", "karcher", "--d", "3", "--n-anchors", "4", "--gamma", "3.0", "--seed", "5"]
_BILINEAR = ["--problem", "bilinear", "--d", "3", "--seed", "3"]
_ITERS = ["--iters", "40"]

# (name, argv, output files, whether stdout is an output)
COMMANDS = (
    ("eg", ["run", *_RPCA, *_ITERS, "--solver", "rceg", "--eta", "0.1", "--out", "eg.csv"], ["eg.csv"], False),
    (
        "eg_noavg",
        ["run", *_RPCA, *_ITERS, "--solver", "rceg", "--eta", "0.1", "--no-average", "--out", "eg_noavg.csv"],
        ["eg_noavg.csv"],
        False,
    ),
    (
        # The only witnesses of a non-null curvature block in the trace header.
        "eg_diam",
        ["run", *_RPCA, *_ITERS, "--solver", "rceg", "--eta", "0.1", "--diameter", "1.5", "--out", "eg_diam.csv"],
        ["eg_diam.csv"],
        False,
    ),
    (
        "mb",
        [
            "run", *_RPCA, *_ITERS, "--solver", "srceg", "--batch-size", "2", "--eta", "auto", "--a", "1.0",
            "--out", "mb.csv",
        ],
        ["mb.csv"],
        False,
    ),
    (
        "noise",
        ["run", *_RPCA, *_ITERS, "--solver", "srceg", "--sigma", "0.1", "--eta", "0.05", "--out", "noise.csv"],
        ["noise.csv"],
        False,
    ),
    (
        "noise_noavg",
        [
            "run", *_RPCA, *_ITERS, "--solver", "srceg", "--sigma", "0.1", "--eta", "0.05", "--no-average",
            "--out", "noise_noavg.csv",
        ],
        ["noise_noavg.csv"],
        False,
    ),
    ("gda", ["run", *_KARCHER, *_ITERS, "--solver", "rgda", "--eta", "0.05", "--out", "gda.csv"], ["gda.csv"], False),
    (
        "scsc",
        ["run", *_KARCHER, *_ITERS, "--solver", "rgda", "--eta", "auto", "--out", "scsc.csv"],
        ["scsc.csv"],
        False,
    ),
    (
        "sgda",
        ["run", *_BILINEAR, *_ITERS, "--solver", "srgda", "--sigma", "0.2", "--eta", "0.05", "--out", "sgda.csv"],
        ["sgda.csv"],
        False,
    ),
    ("ref", ["reference", *_KARCHER, "--tol", "1e-8", "--out", "ref.json"], ["ref.json"], False),
    (
        "ref_bilinear",
        ["reference", *_BILINEAR, "--tol", "1e-8", "--out", "ref_bilinear.json"],
        ["ref_bilinear.json"],
        False,
    ),
    (
        # Fails with a geometry error, so the witness is its exit code and the missing file.
        "ref_rpca",
        ["reference", *_RPCA, "--tol", "1e-8", "--out", "ref_rpca.json"],
        ["ref_rpca.json"],
        False,
    ),
    (
        "init",
        [
            "run", *_KARCHER, *_ITERS, "--solver", "rceg", "--eta", "0.05",
            "--init-from", "ref.json", "--reference", "ref.json", "--out", "init.csv",
        ],
        ["init.csv"],
        False,
    ),
    (
        # Averaging from a random start keeps up to four SPD base points live per side.
        "keg",
        ["run", *_KARCHER, *_ITERS, "--solver", "rceg", "--eta", "0.05", "--reference", "ref.json", "--out", "keg.csv"],
        ["keg.csv"],
        False,
    ),
    (
        "keg_diam",
        ["run", *_KARCHER, *_ITERS, "--solver", "rceg", "--eta", "0.05", "--diameter", "2.0", "--out", "keg_diam.csv"],
        ["keg_diam.csv"],
        False,
    ),
    (
        "inst",
        [
            "run", *_RPCA, *_ITERS, "--solver", "rgda", "--eta", "0.05", "--save-instance", "inst.json",
            "--out", "inst.csv",
        ],
        ["inst.json", "inst.csv"],
        False,
    ),
    (
        # The file sets d, n and alpha, so only the problem and the run seed are given.
        "inst_load",
        [
            "run", "--problem", "rpca", "--seed", "7", *_ITERS, "--solver", "rceg", "--eta", "0.05",
            "--instance", "inst.json", "--out", "inst_load.csv",
        ],
        ["inst_load.csv"],
        False,
    ),
    (
        "diverge",
        ["run", *_BILINEAR, "--solver", "rgda", "--eta", "0.9", "--iters", "200", "--out", "diverge.csv"],
        ["diverge.csv"],
        False,
    ),
    (
        # An SPD exp result that is not PD: exit 3 at iteration 0, with the partial trace of row 0.
        "diverge_spd",
        [
            "run", "--problem", "rpca", "--d", "3", "--n", "5", "--seed", "1", "--solver", "rgda", "--eta", "30",
            "--out", "diverge_spd.csv",
        ],
        ["diverge_spd.csv"],
        False,
    ),
    (
        "rank_ell",
        ["grid-search", *_RPCA, *_ITERS, "--solver", "rceg", "--ell-grid", "1,2,4", "--out", "rank_ell.csv"],
        ["rank_ell.csv"],
        True,
    ),
    (
        "rank_a",
        [
            "grid-search", *_RPCA, *_ITERS, "--solver", "srceg", "--batch-size", "2", "--a-grid", "0.5,1",
            "--out", "rank_a.csv",
        ],
        ["rank_a.csv"],
        True,
    ),
    (
        "rank_sgda",
        [
            "grid-search", *_BILINEAR, *_ITERS, "--solver", "srgda", "--sigma", "0.2", "--ell-grid", "1,2,4",
            "--out", "rank_sgda.csv",
        ],
        ["rank_sgda.csv"],
        True,
    ),
    (
        "rank_init",
        [
            "grid-search", *_KARCHER, *_ITERS, "--solver", "rgda", "--ell-grid", "5,10,20",
            "--init-from", "ref.json", "--out", "rank_init.csv",
        ],
        ["rank_init.csv"],
        True,
    ),
    (
        "fig",
        [
            "plot", "--series", "eg.csv:grad_norm:last", "--series", "eg.csv:grad_norm_avg:avg",
            "--out", "fig.csv", "--svg", "fig.svg",
        ],
        ["fig.csv", "fig.svg"],
        False,
    ),
    (
        # Batch 3 does not divide n = 8, so each candidate ends mid-epoch and the next must start a fresh one.
        "rank_mb3",
        [
            "grid-search", *_RPCA, "--iters", "15", "--solver", "srceg", "--batch-size", "3", "--a-grid", "0.5,1,2",
            "--out", "rank_mb3.csv",
        ],
        ["rank_mb3.csv"],
        True,
    ),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory(prefix="geosaddle-hashes-") as work:
        for name, argv, outputs, hash_stdout in COMMANDS:
            proc = subprocess.run(
                [sys.executable, "-m", "geosaddle", *argv],
                cwd=work,
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                check=False,
            )
            if proc.returncode != 0:
                print(f"exit {proc.returncode}  {name}")
            for out in outputs:
                path = Path(work) / out
                print(f"{_sha256(path.read_bytes()) if path.exists() else 'missing':<64}  {out}")
            if hash_stdout:
                print(f"{_sha256(proc.stdout)}  {name}.stdout")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
