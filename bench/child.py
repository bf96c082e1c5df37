"""Run the ``blochdd`` CLI once in this fresh process and report on it.

    python3 child.py REPORT_JSON SPANS_JSON|- RUN_ID -- <blochdd CLI arguments>

``run_s`` is the wall time of ``blochdd.cli.main`` after the package is
imported: config load through the last output file written.  With a
spans path other than ``-`` the run is traced (see ``tracer.py``); the
spans are written there after the CLI returns, and the per-layer
figures go into the report.  The CLI's exit code is in the report; this
process exits 0 whenever the report was written.
"""

import json
import os
import resource
import sys
import time

_start = time.perf_counter()


def main(argv) -> int:
    report_path, spans_path, run_id = argv[:3]
    if argv[3] != "--":
        raise SystemExit("usage: child.py REPORT SPANS|- RUN_ID -- CLI-ARGS")
    cli_args = argv[4:]
    traced = spans_path != "-"

    import blochdd.cli as cli

    import_s = time.perf_counter() - _start
    tracer = None
    if traced:
        import tracer as tracing  # sibling of this script

        tracer = tracing.Tracer(run_id)
        tracer.install()

    t0 = time.perf_counter()
    root = tracer.open(tracing.ROOT) if traced else None
    try:
        rc = cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    if traced:
        tracer.close(root)
    run_s = time.perf_counter() - t0

    import numpy
    import scipy

    import blochdd

    report = {
        "rc": rc,
        "run_s": run_s,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blochdd": getattr(blochdd, "__version__", None),
        },
        "blochdd_path": os.path.dirname(os.path.abspath(blochdd.__file__)),
    }
    if traced:
        report["layers"] = tracing.layer_metrics(tracer)
        report["absent"] = tracer.absent
        with open(spans_path, "w") as fh:
            json.dump(tracing.spans_to_records(tracer), fh)
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
