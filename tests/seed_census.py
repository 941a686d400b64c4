"""Seed-shift census of the tier-1 suite.

Many tier-1 tests run an estimator at one committed seed and hold its
result to a bound, so a test that passes may pass at that seed alone.  The
census runs the whole suite once per shift, every ``SeededSampler``
stream's seed moved by the shift, the tests' and the harness's alike, and
writes how many of the shifted suites each test passed, with the first
line of each failure's message:

    PYTHONPATH=src:tests python tests/seed_census.py --out CENSUS.json

Each shift runs in its own pytest process with this module as a plugin
(``-p seed_census --seed-shift S --census-report FILE``), at the fixed
shifts 0, 1000, ..., 12000 (``SHIFTS``).  Shift 0 is the suite as
committed.
A stream is shifted once: ``seed`` keeps the value it was given, and only
the generator draws on seed + shift, so a child, built from its parent's
``seed``, draws on its parent's shifted seed and is not shifted again.
The module is not collected (its name does not match ``test_*.py``).
"""

import argparse
import contextlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile

from flagdim.ensemble import SeededSampler

SHIFTS = tuple(range(0, 13_000, 1000))
ROOT = pathlib.Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def shift_seeds(shift):
    """Every ``SeededSampler`` made inside draws on its seed plus ``shift``."""
    real = SeededSampler.__init__

    def shifted(self, seed, stream=()):
        real(self, int(seed) + shift, stream)
        self.seed = int(seed)
    SeededSampler.__init__ = shifted
    try:
        yield
    finally:
        SeededSampler.__init__ = real


class _Recorder:
    """Shifts every seed for the session and records each test's outcome:
    None for a pass, else the first line of its first failure."""

    def __init__(self, shift, path):
        self.path = path
        self.outcomes = {}
        self.shift = contextlib.ExitStack()
        self.shift.enter_context(shift_seeds(shift))

    def pytest_runtest_logreport(self, report):
        if report.failed and self.outcomes.get(report.nodeid) is None:
            crash = getattr(report.longrepr, "reprcrash", None)
            message = crash.message if crash else str(report.longrepr)
            self.outcomes[report.nodeid] = (message.strip().splitlines()
                                            or [report.when])[0]
        else:
            self.outcomes.setdefault(report.nodeid, None)

    def pytest_unconfigure(self):
        self.shift.close()
        with open(self.path, "w") as fh:
            json.dump(self.outcomes, fh, indent=1, sort_keys=True)


def pytest_addoption(parser):
    parser.addoption("--seed-shift", type=int, default=0,
                     help="add this to every SeededSampler seed")
    parser.addoption("--census-report", required=True,
                     help="write each test's outcome here as JSON")


def pytest_configure(config):
    config.pluginmanager.register(
        _Recorder(config.getoption("--seed-shift"),
                  config.getoption("--census-report")), "seed-census")


def run_shift(shift):
    """Each test's failure message at ``shift``, None where it passed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp) / "outcomes.json"
        subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-p", "seed_census", f"--seed-shift={shift}",
             f"--census-report={report}", "--continue-on-collection-errors"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=False)
        with open(report) as fh:
            return json.load(fh)


def census():
    """{"shifts", "passes": test -> shifts passed, "failures": test ->
    {shift: message}} over every test any shift ran."""
    runs = {shift: run_shift(shift) for shift in SHIFTS}
    tests = sorted({test for outcomes in runs.values() for test in outcomes})
    outcomes = {test: {str(s): runs[s].get(test, "not run") for s in SHIFTS}
                for test in tests}
    failures = {test: {s: m for s, m in by_shift.items() if m is not None}
                for test, by_shift in outcomes.items()}
    return {"shifts": list(SHIFTS), "tests": len(tests),
            "passes": {test: len(SHIFTS) - len(failures[test])
                       for test in tests},
            "failures": {test: f for test, f in failures.items() if f}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="census JSON to write")
    args = p.parse_args(argv)
    result = census()
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for test, failed in result["failures"].items():
        print(f"{test}: failed at {len(failed)} of {len(SHIFTS)} shifts")


if __name__ == "__main__":
    main()
