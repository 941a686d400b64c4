import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from flagdim import harness
from flagdim.dynamics import SpectrumEstimate
from flagdim.entropy import KappaEstimate

# small enough to run in seconds; refusals are outputs too and must repeat
TINY = dict(seed=11, spectrum_steps=400, burnin=100, interval_n=20,
            replicas=4, orbit_samples=8, tail_replicas=1500, bandwidth=0.1,
            emit_figures=False)


def _outputs(ensemble, threads, out_dir):
    cfg = harness.load_config(None, dict(TINY, ensemble=ensemble),
                              environ={})
    paths = harness.emit_outputs(harness.run_verify(cfg, threads=threads),
                                 str(out_dir))
    return {pathlib.Path(p).name: pathlib.Path(p).read_bytes() for p in paths}


@pytest.mark.parametrize("ensemble", ["bern2", "diag3eps"])
def test_verify_outputs_repeat_byte_for_byte(ensemble, tmp_path):
    # the CSVs and summary.txt depend on (config, seed) alone: not on the
    # run, and not on how many threads run the legs
    first = _outputs(ensemble, 1, tmp_path / "a")
    assert {"spectrum.csv", "kappa.csv", "decay.csv", "diagnostics.csv",
            "summary.txt"} <= set(first)
    assert _outputs(ensemble, 1, tmp_path / "b") == first
    assert _outputs(ensemble, 2, tmp_path / "c") == first


def test_interval_row_above_the_gap_reads_violated():
    # diag3eps at seed 7: the interval kappa_2 sits 2.2 stderr above gap 2
    # while the density kappa_2 sits below it; each route gets its own row
    cfg = harness.load_config(None, {"ensemble": "diag3eps", "seed": 7,
                                     "fiber_index": 2}, environ={})
    spectrum = SpectrumEstimate(
        chi=np.array([0.0, -0.03500, -0.06389]), stderr=np.zeros(3),
        n_steps=1, burnin=0, replicas=2,
        gap_stderrs=np.array([0.0001, 0.00009]))
    results = {
        ("density", 2): KappaEstimate(kappa=0.02554, stderr=0.00434,
                                      method="density", fiber_index=2),
        ("interval", 2): KappaEstimate(kappa=0.03356, stderr=0.00215,
                                       method="interval", fiber_index=2)}
    bundle = harness._entropy_bundle(cfg, spectrum, results, {}, 0.0)
    rows = {r.method: r for r in bundle.gap_rows}
    assert set(rows) == {"density", "interval"}
    assert rows["density"].bound_satisfied
    assert not rows["interval"].bound_satisfied
    assert rows["interval"].line().startswith("fiber 2 (interval): ")
    assert rows["interval"].line().endswith(": VIOLATED")


def test_traced_functions_resolve():
    # the benchmark's tracer wraps these names from outside the package;
    # each must stay importable where the tracer looks for it
    path = pathlib.Path(__file__).parents[1] / "flagbench" / "tracer.py"
    loc = importlib.util.spec_from_file_location("flagbench_tracer", path)
    tracer = importlib.util.module_from_spec(loc)
    loc.loader.exec_module(tracer)
    missing = [f"{module}.{name}" for module, name, _ in tracer.TRACED
               if not hasattr(importlib.import_module(f"flagdim.{module}"),
                              name)]
    assert len(tracer.TRACED) > 20 and missing == []
