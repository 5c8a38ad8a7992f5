"""One benchmark sample: ``geosaddle.cli.main(argv)`` in a fresh process.

Usage: child.py REPORT_JSON SAMPLE_ID TRACE -- GEOSADDLE_ARGV...

The parent puts the checkout's ``src`` on PYTHONPATH and pins the BLAS
thread count. This process times its own import of geosaddle, stamps the
setup/solve boundary, and with TRACE=1 records layer spans (see
tracing.py). It writes a JSON report (and, when traced, the spans to
REPORT_JSON + ".npz") after the command returns; every stamp is a
``time.monotonic()`` reading, a clock shared with the parent.
"""

import ctypes
import json
import sys
import time


def _blas_threads():
    """(library path, thread count) of the OpenBLAS numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return path.rsplit("/", 1)[-1], int(getattr(lib, sym)())
    return None, None


def _peak_rss_kb() -> int:
    """High-water RSS of this process image (VmHWM).

    ``getrusage`` would also count the parent's pages inherited at fork
    before the exec, so a large parent would inflate it.
    """
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main() -> int:
    report_path, sample, traced = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py REPORT_JSON SAMPLE_ID TRACE -- GEOSADDLE_ARGV...")
    argv = sys.argv[5:]

    t0 = time.monotonic()
    import geosaddle.cli

    t1 = time.monotonic()
    import tracing

    tracer = tracing.Tracer(sample) if traced else None
    if tracer is not None:
        tracer.install()
    boundary = tracing.Boundary()
    boundary.install()
    t2 = time.monotonic()

    rc = geosaddle.cli.main(argv)
    main_end = time.monotonic()

    blas_lib, blas_threads = _blas_threads()
    report = {
        "rc": rc,
        "sample": sample,
        "import_s": t1 - t0,
        "install_s": t2 - t1,
        "solve_entry": boundary.entry,
        "solve_exit": boundary.exit,
        "iters": boundary.iters,
        "main_end": main_end,
        "peak_rss_kb": _peak_rss_kb(),
        "blas_lib": blas_lib,
        "blas_threads": blas_threads,
    }
    if tracer is not None:
        tracer.dump(report_path + ".npz")
        report["names"] = tracer.names
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
