"""One `vws` call in a fresh interpreter, timed from the inside.

    python3 child.py SRC_DIR KIND CONFIG OUT_DIR SEED MODE

MODE is ``setup`` (import and parse only), ``run`` (the whole call) or
``trace`` (the whole call with every layer traced).  The last line of
standard output is one JSON object with the timings; the exit status is the
one ``vws`` would return.

A fixed reference kernel, which uses no ``vwslab`` code, is timed right after
the set-up and again right after the call.  Its time tells how fast the host
ran at that moment, so the harness can divide the host's speed out.
"""

import json
import resource
import sys
import time

REFERENCE_ITERS = 150


def reference() -> float:
    """Seconds taken by a fixed mix of FFTs, array arithmetic and bytecode."""
    import numpy as np

    t0 = time.perf_counter()
    # Small arrays, so that the kernel never sets the child's peak memory.
    field = np.exp(1j * np.arange(4096.0).reshape(64, 64))
    line = np.linspace(0.0, 1.0, 1 << 15)
    acc = 0.0
    for _ in range(REFERENCE_ITERS):
        acc += float(np.fft.ifft2(np.fft.fft2(field) * 0.5)[1, 1].real)
        for _ in range(8):
            acc += float((line * 1.0001 + 1.0).sum())
        acc += sum(i * i for i in range(400))
    if acc != acc:
        raise ArithmeticError("reference kernel gave NaN")
    return time.perf_counter() - t0


def main(argv: list) -> int:
    src, kind, config, out_dir, seed, mode = argv
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import vwslab.cli as cli
    t_import = time.perf_counter()
    tracer = names = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        names = tracer.install()
    with open(config, encoding="utf-8") as fh:
        cfg = cli.parse_config(fh.read(), kind=kind)
    t_ready = time.perf_counter()
    out = {"vwslab_file": cli.__file__, "import_s": t_import - t0,
           "setup_s": t_ready - t0, "ref_setup_s": reference()}
    status = 0
    if mode != "setup":
        t1 = time.perf_counter()
        status = cli.run(cfg, out_dir, seed=int(seed))
        out["run_s"] = time.perf_counter() - t1
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    if mode != "setup":
        out["ref_run_s"] = reference()
    import numpy
    import scipy

    out.update(status=status, numpy=numpy.__version__,
               scipy=scipy.__version__)
    if tracer is not None:
        out["trace"] = tracer.summary(names)
        out["states_mb"] = tracer.states_bytes / 1e6
    print(json.dumps(out))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
