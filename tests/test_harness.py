import pathlib

import pytest

from flagdim import harness

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
