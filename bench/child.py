"""One measured branchsim CLI call in a fresh process.

    python3 bench/child.py MODE CONFIG REPORT [CLI FLAG ...]

MODE is ``time`` (import and run seconds), ``memory`` (tracemalloc peak of
the run), ``trace`` (per-layer spans of the run) or ``facts`` (import only,
then describe the machine).  The result is one JSON object on the last line
of standard output.  branchsim is imported from the ``src`` directory next
to this one, and nowhere else.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main(argv: list[str]) -> int:
    mode, config, report, *flags = argv
    sys.path.insert(0, SRC)
    started = time.perf_counter()
    import branchsim.cli

    setup_s = time.perf_counter() - started
    if os.path.dirname(os.path.dirname(os.path.abspath(branchsim.__file__))) != SRC:
        print(f"branchsim imported from {branchsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    cli_args = ["run", config, "--out", report, *flags]
    result: dict = {"setup_s": setup_s}

    if mode == "facts":
        result.update(machine_facts())
    elif mode == "time":
        started = time.perf_counter()
        result["exit"] = branchsim.cli.main(cli_args)
        result["run_s"] = time.perf_counter() - started
    elif mode == "memory":
        import tracemalloc

        tracemalloc.start()
        result["exit"] = branchsim.cli.main(cli_args)
        result["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    elif mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        started = time.perf_counter()
        result["exit"] = branchsim.cli.main(cli_args)
        wall = time.perf_counter() - started
        layers = tracer.summary()
        remainder = wall - tracer.top_level_seconds()
        # Self times of all spans plus the untraced remainder must make up
        # the traced wall time; anything else means the span tree is wrong.
        accounted = sum(entry["self_s"] for entry in layers.values()) + remainder
        if abs(accounted - wall) > 1e-6 * max(1.0, wall):
            print(f"span self times add to {accounted}, wall is {wall}", file=sys.stderr)
            return 2
        result.update(
            run_s=wall,
            remainder_s=remainder,
            layers=layers,
            missing=tracer.missing,
            operator_bytes=tracer.operator_bytes,
            distinct_operators=tracer.distinct_operators,
        )
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
    }


def _cache_size(level: int) -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(os.path.join(base, entry, "level")) as handle:
                if int(handle.read()) != level:
                    continue
            with open(os.path.join(base, entry, "size")) as handle:
                return handle.read().strip()
    except (OSError, ValueError):
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
