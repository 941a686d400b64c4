"""The flagdim benchmark: one workload per run, timed end to end.

    python3 flagbench/run.py --workload verify-bern2 --seed 1 --seconds 24 --trace 0

Run it from the root of a checkout of the repository; it imports flagdim
from src/.  Each call of the flagdim command runs in a fresh process with
--threads 1 and one BLAS thread (worker.py), so set-up (interpreter start,
import, config and ensemble) is timed on every call and peak memory is
the call's own.  A run makes a fixed number of calls at the workload's
fixed program seed, so every run does the same work; all calls must
write byte-identical CSVs and summary.txt.  ``--seed`` seeds the
benchmark's own reference draws, never the program's.

With --trace 0 the last line of stdout is a JSON object whose metrics are
setup_s, command_s and peak_rss_mb, the medians over the run's calls (and,
for setup_s, over set-up-only starts as well).  With --trace 1 the run
makes one untraced and one traced call and reports the traced call's
per-layer figures, plus bench.trace_overhead_s, the traced command time
minus the untraced one.  An operation is one leg of a call; a leg fails
when the program refuses it or when its output fails a check in
checks.py.  See README.md for the workloads, checks and reference figures.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402

PROGRAM_SEED = 7
SETUP_PROBES = 4      # set-up-only starts per run, after one warm-up start
CALL_TIMEOUT_S = 170

# nominal_s: an untraced call on a 2-core x86-64 container; a run makes
# max(2, seconds // nominal_s) calls, so the count never reads the clock
WORKLOADS = {
    "verify-bern2": {
        "command": "verify", "ensemble": "bern2", "nominal_s": 14.0,
        "budget": {"spectrum_steps": 10_000, "interval_n": 150, "replicas": 12,
                   "orbit_samples": 24, "tail_replicas": 6000}},
    "verify-diag3eps": {
        "command": "verify", "ensemble": "diag3eps", "nominal_s": 20.0,
        "budget": {"spectrum_steps": 5000, "interval_n": 60, "replicas": 12,
                   "orbit_samples": 24, "tail_replicas": 2000}},
    "spectrum-diag3eps": {
        "command": "spectrum", "ensemble": "diag3eps", "nominal_s": 12.0,
        "budget": {}},
}


def _spawn(request, run_dir, tag):
    """Run worker.py on one request; returns (result, set-up seconds)."""
    req_path = os.path.join(run_dir, f"{tag}.request.json")
    request["result"] = os.path.join(run_dir, f"{tag}.result.json")
    with open(req_path, "w") as fh:
        json.dump(request, fh)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), req_path],
                   check=True, env=env, stdout=subprocess.DEVNULL,
                   timeout=CALL_TIMEOUT_S)
    with open(request["result"]) as fh:
        result = json.load(fh)
    return result, result["ready"] - start


def _reference(workload, spec, seed, root):
    if workload["ensemble"] == "bern2":
        return {"ulam": checks.ulam(spec, root)}
    chi, err = checks.qr_spectrum(spec, [seed, 0x5EC])
    return {"qr_chi": chi, "qr_stderr": err}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--program-seed", type=int, default=PROGRAM_SEED,
                   help="the seed flagdim runs with (default %(default)s)")
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and waits
    # for the call in flight instead of leaving it running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "flagdim", "harness.py")):
        print("flagbench: run from a checkout root holding src/flagdim",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from flagdim.ensemble import BENCHMARKS

    workload = WORKLOADS[args.workload]
    spec = BENCHMARKS[workload["ensemble"]]()
    run_dir = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    def request(tag, setup_only=False, trace=False):
        overrides = dict(workload["budget"], ensemble=workload["ensemble"],
                         seed=args.program_seed, emit_figures=True,
                         out_dir=os.path.join(run_dir, tag))
        return {"command": workload["command"], "overrides": overrides,
                "setup_only": setup_only, "trace": trace}

    setups = []
    _spawn(request("warmup", setup_only=True), run_dir, "warmup")
    for k in range(SETUP_PROBES):
        setups.append(_spawn(request(f"setup{k}", setup_only=True),
                             run_dir, f"setup{k}")[1])
    if args.trace:
        plan = [("call0", False), ("traced", True)]
    else:
        n_calls = max(2, int(args.seconds // workload["nominal_s"]))
        plan = [(f"call{k}", False) for k in range(n_calls)]
    results = {}
    for tag, trace in plan:
        results[tag], setup = _spawn(request(tag, trace=trace), run_dir, tag)
        setups.append(setup)
        print(f"{tag}: command {results[tag]['command_s']:.3f} s, set-up "
              f"{setup:.3f} s, peak {results[tag]['peak_rss_mb']:.1f} MB")

    reference = _reference(workload, spec, args.seed, root)
    attempted = failed = 0
    hashes = set()
    for tag, _ in plan:
        out_dir = os.path.join(run_dir, tag)
        hashes.add(checks.output_hash(out_dir))
        for leg, problems in checks.check_call(
                out_dir, workload["command"], spec, reference).items():
            attempted += 1
            if problems:
                failed += 1
                print(f"{tag} {leg}: FAILED: {'; '.join(problems)}")
    deterministic = len(hashes) == 1
    print(f"output hash {' '.join(sorted(hashes))}"
          + ("" if deterministic else " (calls differ)"))

    if args.trace:
        traced = results["traced"]
        metrics = {name: {"value": value,
                          "unit": "s" if name.endswith("_s") else
                          "share" if name.endswith("_share") else
                          "bytes" if name.endswith(".bytes") else "count"}
                   for name, value in traced["per_layer"].items()}
        metrics["bench.trace_overhead_s"] = {
            "value": traced["command_s"] - results["call0"]["command_s"],
            "unit": "s"}
        with open(os.path.join(run_dir, "trace.json"), "w") as fh:
            json.dump({"workload": args.workload,
                       "untraced_command_s": results["call0"]["command_s"],
                       "traced_command_s": traced["command_s"],
                       "legs": traced["legs"], "spans": traced["spans"]},
                      fh, indent=1)
        for leg in traced["legs"]:
            print(f"leg {leg['name']}: "
                  f"{leg['end_s'] - leg['start_s']:.3f} s traced")
    else:
        calls = [results[tag] for tag, _ in plan]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "command_s": {"value": statistics.median(
                c["command_s"] for c in calls), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                c["peak_rss_mb"] for c in calls), "unit": "MB"},
        }
    print(json.dumps({"correct": deterministic, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
