"""One mblchain CLI process, timed from inside.

    python3 bench/child.py --root ROOT --sidecar PATH [--trace] -- CLI_ARGS...

Installs the tracer (realization timings only, or every span with
--trace) before importing the package from ROOT/src, runs
``mblchain.cli.main(CLI_ARGS)``, writes its timings to the sidecar JSON
file and exits with the CLI's exit code.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys

import tracing


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports about itself."""
    symbols = ("scipy_openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return out
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = int(fn())
                break
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--sidecar", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    src = os.path.join(os.path.abspath(opts.root), "src")
    sys.path.insert(0, src)
    tracer = tracing.Tracer(traced=opts.trace)
    tracer.install()

    import mblchain.cli
    if not os.path.abspath(mblchain.cli.__file__).startswith(src + os.sep):
        print(f"mblchain imported from {mblchain.cli.__file__}, not {src}",
              file=sys.stderr)
        return 90

    code = mblchain.cli.main(cli_args)

    record = {
        "exit_code": code,
        "realizations": tracer.realizations,
        "cpu_first": tracer.cpu_first,
        "cpu_last": tracer.cpu_last,
        "blas_threads": blas_threads(),
    }
    if opts.trace:
        record["trace"] = tracer.summary()
    with open(opts.sidecar, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
