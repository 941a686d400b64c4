"""One call of a flagdim command in a fresh process, timed from inside.

Run by run.py as

    python3 flagbench/worker.py REQUEST.json

The request names the command, the config overrides, the output
directory, where to write the timings, and whether to stop after set-up
or to trace.  Set-up is the import of flagdim plus loading the config and
the ensemble; the command is what ``flagdim <command>`` does after that:
run the estimators and write the CSVs, summary.txt and figures.  The
moment set-up ends is read on the system-wide monotonic clock, so the
parent can measure set-up from the moment it started this process.
"""

import json
import os
import resource
import sys
import time


def main(request_path):
    with open(request_path) as fh:
        req = json.load(fh)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from flagdim import harness

    cfg = harness.load_config(None, req["overrides"], environ={})
    cfg.spec()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result = {"ready": ready}
    if not req["setup_only"]:
        runner = {"spectrum": harness.run_spectrum,
                  "verify": harness.run_verify}[req["command"]]
        tracer = None
        if req["trace"]:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        bundle = runner(cfg, threads=1)
        harness.emit_outputs(bundle, cfg.out_dir)
        result["command_s"] = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            result["per_layer"] = tracer.metrics()
            result["legs"] = [{"name": leg["name"],
                               "start_s": leg["start"] - start,
                               "end_s": leg["end"] - start}
                              for leg in tracer.legs]
            result["spans"] = tracer.stats
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(req["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
