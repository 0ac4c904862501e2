"""One benchmark operation in a fresh interpreter: ``python3 child.py SPEC_JSON``.

SPEC_JSON holds ``root`` (the checkout), ``argv`` (the ``skipchurn`` command
line), ``mode`` (``plain`` or ``traced``), ``result`` (where to write
this process's JSON result) and, for traced mode, ``spans`` (where to write the
span table).  The parent measures set-up from just before it starts this
process; ``t_ready`` marks the moment skipchurn is imported and the argument
list is built.
"""

import json
import resource
import signal
import sys
import time
from pathlib import Path

# While the workload runs, a wall-clock timer interrupts it this often to time
# the reference loop, which samples the host's speed over the whole operation.
PROBE_INTERVAL_S = 0.05


def _blas_threads():
    """Thread count OpenBLAS uses in this process, or None when it cannot be asked."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _reference() -> float:
    """Seconds of a fixed interpreter-bound loop, to gauge the host's current speed."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(2500):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0) % 13
    return time.perf_counter() - t0


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import skipchurn
    import skipchurn.cli as cli

    if Path(skipchurn.__file__).resolve().parent != (root / "src" / "skipchurn").resolve():
        raise SystemExit(f"skipchurn imported from {skipchurn.__file__}, not from the checkout")
    argv = list(spec["argv"])
    t_ready = time.monotonic()
    entry = cli.main
    tracer = None
    if spec["mode"] == "traced":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.layer_targets())
        entry = tracer.wrap(tracing.ROOT, cli.main)
    refs = [_reference()]
    if tracer is None:
        signal.signal(signal.SIGALRM, lambda signum, frame: refs.append(_reference()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    w0 = time.perf_counter()
    c0 = time.process_time()
    try:
        rc = entry(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        probe_s = sum(refs[1:])
        run_s = time.perf_counter() - w0 - probe_s
        cpu_s = time.process_time() - c0 - probe_s
        if tracer is not None:
            tracer.uninstall()
    result = {
        "t_ready": t_ready,
        "rc": rc,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": _blas_threads(),
        "refs": refs,
    }
    if tracer is not None:
        result["layers"] = {
            name: [value, unit] for name, (value, unit) in tracing.layer_metrics(tracer, run_s).items()
        }
        result["missing_targets"] = tracer.missing
        tracer.save(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
