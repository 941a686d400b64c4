import builtins
import dataclasses
import importlib
import importlib.util
import pathlib
from xml.etree import ElementTree

import numpy as np
import pytest

from flagdim import _svg, dynamics, harness, measures
from flagdim.dynamics import SpectrumEstimate
from flagdim.ensemble import SeededSampler, bern2, to_text
from flagdim.entropy import KappaEstimate
from flagdim.errors import BandwidthTooSmall, ConfigError, HypothesisNotMet
from flagdim.measures import EmpiricalCircleMeasure

# small enough to run in seconds; refusals are outputs too and must repeat
TINY = dict(seed=11, spectrum_steps=400, burnin=100, interval_n=20,
            replicas=4, orbit_samples=8, tail_replicas=1500, bandwidth=0.1,
            emit_figures=False)


def _outputs(command, ensemble, threads, out_dir, **overrides):
    cfg = harness.load_config(None, dict(TINY, ensemble=ensemble, **overrides),
                              environ={})
    paths = harness.emit_outputs(harness.run(cfg, command, threads=threads),
                                 str(out_dir))
    return {pathlib.Path(p).name: pathlib.Path(p).read_bytes() for p in paths}


FILES = {"verify": {"spectrum.csv", "kappa.csv", "decay.csv",
                    "diagnostics.csv", "summary.txt"},
         "dimension": {"spectrum.csv", "ballmass.csv", "diagnostics.csv",
                       "summary.txt"}}


@pytest.mark.parametrize(
    "command, ensemble",
    [("verify", "bern2"), ("verify", "diag3eps"), ("verify", "iso2"),
     ("dimension", "bern2"), ("dimension", "diag3eps")],
    ids=["bern2", "diag3eps", "iso2", "dimension-bern2",
         "dimension-diag3eps"])
def test_verify_outputs_repeat_byte_for_byte(command, ensemble, tmp_path):
    # the CSVs and summary.txt depend on (config, seed) alone: not on the
    # run, and not on how many threads run the legs
    first = _outputs(command, ensemble, 1, tmp_path / "a")
    assert FILES[command] <= set(first)
    assert _outputs(command, ensemble, 1, tmp_path / "b") == first
    assert _outputs(command, ensemble, 2, tmp_path / "c") == first


def _fixed_kappa(cfg, spec, i, sampler, pools):
    # a kappa that passes the reports' significance gate
    return KappaEstimate(kappa=1.0, stderr=0.0, method="density",
                         fiber_index=i)


def _is_subsequence(lines, of):
    rest = iter(of)
    return all(line in rest for line in lines)


@pytest.mark.parametrize("ensemble", ["bern2", "diag3eps"])
@pytest.mark.parametrize("command", ["spectrum", "entropy", "dimension"])
def test_each_command_writes_rows_of_verify(command, ensemble, monkeypatch,
                                            tmp_path):
    # a command is a selection of verify's legs on verify's streams: each
    # file it writes holds verify's header and a selection of verify's
    # rows, in verify's order.  On diag3eps a fixed kappa lets the
    # reports run
    if ensemble == "diag3eps":
        monkeypatch.setattr(harness, "_density_leg", _fixed_kappa)
    verify = _outputs("verify", ensemble, 1, tmp_path / "verify")
    files = _outputs(command, ensemble, 1, tmp_path / command)
    assert set(files) <= set(verify)
    for name, data in files.items():
        lines, of = data.splitlines(), verify[name].splitlines()
        if name.endswith(".csv"):
            assert lines[:2] == of[:2]
        assert _is_subsequence(lines, of), name
    assert files["spectrum.csv"] == verify["spectrum.csv"]
    if command == "entropy":
        assert files["kappa.csv"] == verify["kappa.csv"]
    if command == "dimension":
        for name in ("dimension.csv", "ballmass.csv"):
            assert files.get(name) == verify.get(name)


def _fiber_two_rows(files):
    """Fiber 2's rows of the per-fiber CSVs and of diagnostics.csv."""
    rows = {}
    for name in ("kappa.csv", "dimension.csv", "ballmass.csv",
                 "diagnostics.csv"):
        lines = files.get(name, b"").decode().splitlines()[2:]
        rows[name] = [line for line in lines
                      if (line.startswith("2,") if name != "diagnostics.csv"
                          else "fiber 2" in line)]
    return rows


@pytest.mark.parametrize("fixed", [False, True],
                         ids=["estimated-kappa", "fixed-kappa"])
def test_fiber_two_run_writes_the_rows_of_an_all_fiber_run(
        fixed, monkeypatch, tmp_path):
    # every route draws its bank of tail pools on fiber 1's streams, so
    # fiber 2's rows do not depend on the run covering fiber 1.  At this
    # budget both reports refuse at their kappa gate; a fixed kappa lets
    # them run
    if fixed:
        monkeypatch.setattr(harness, "_density_leg", _fixed_kappa)
    every = _fiber_two_rows(_outputs("verify", "diag3eps", 1,
                                     tmp_path / "all"))
    alone = _fiber_two_rows(_outputs("verify", "diag3eps", 1,
                                     tmp_path / "two", fiber_index=2))
    assert alone == every
    assert every["kappa.csv"] and every["ballmass.csv"]
    assert bool(every["dimension.csv"]) == fixed


def _pool_sizes(monkeypatch):
    """The size of every ``stationary_flag_pool`` draw, in draw order."""
    sizes = []
    real = dynamics.stationary_flag_pool

    def spy(spec, count, burnin, sampler, **kwargs):
        sizes.append(count)
        return real(spec, count, burnin, sampler, **kwargs)
    for module in (dynamics, harness):
        monkeypatch.setattr(module, "stationary_flag_pool", spy)
    return sizes


def test_verify_draws_each_bank_once_for_both_fibers(monkeypatch):
    # d = 3: the density and interval routes draw two full-size tail pools
    # each and the reports PIN_REALIZATIONS, for both fibers together; a
    # leg per fiber drawing its own made twice as many.  The ball curves
    # read the reports' measures, which are built before the kappa gate,
    # so a refused report draws its bank too.
    sizes = _pool_sizes(monkeypatch)
    cfg = harness.load_config(None, dict(TINY, ensemble="diag3eps"),
                              environ={})
    refused = harness.run_verify(cfg).refusals
    assert {"dimension fiber 1", "dimension fiber 2"} <= set(refused)
    assert sizes.count(cfg.tail_replicas) == 2 + 2 + harness.PIN_REALIZATIONS
    sizes.clear()
    # a density leg that reads no pools leaves its route's bank undrawn
    monkeypatch.setattr(harness, "_density_leg", _fixed_kappa)
    assert harness.run_verify(cfg).refusals == {}
    assert sizes.count(cfg.tail_replicas) == 2 + harness.PIN_REALIZATIONS


def test_d2_density_and_dimension_legs_draw_no_bank(monkeypatch):
    # d = 2: the density leg and the dimension report burn in replicas of
    # their own (stationary_lines) and never call their routes' banks.
    # The dimension command runs only those two legs, so the pools drawn
    # are the spectrum's 64 replicas and the two legs' lines, and no bank;
    # verify adds the interval route's pair, which every d reads
    sizes = _pool_sizes(monkeypatch)
    banks = []
    real = harness._tail_pools

    def spy(cfg, spec, *streams):
        banks.append(len(streams))
        return real(cfg, spec, *streams)
    monkeypatch.setattr(harness, "_tail_pools", spy)
    cfg = harness.load_config(None, dict(TINY, ensemble="bern2"), environ={})
    bundle = harness.run(cfg, "dimension")
    assert bundle.kappas and bundle.ball_curves
    assert sizes == [64, cfg.tail_replicas, harness.LINE_REPLICAS]
    assert banks == []
    sizes.clear()
    harness.run_verify(cfg)
    assert sizes.count(cfg.tail_replicas) == 1 + 2
    assert banks == [2]


@pytest.mark.parametrize("ensemble", ["bern2", "diag3eps"])
def test_ball_curves_read_the_reports_first_measure(ensemble, monkeypatch,
                                                    tmp_path):
    # each ballmass.csv curve is the ball mass of the report's first
    # sample around one of that sample's points: the fiber measure is
    # sampled once, for the report and the figure alike
    fitted = {}
    real = harness.dimension_formula_report

    def spy(spec, i, spectrum, kappa, samples, sampler):
        fitted[i] = EmpiricalCircleMeasure.from_samples(samples[0])
        return real(spec, i, spectrum, kappa, samples, sampler)
    monkeypatch.setattr(harness, "dimension_formula_report", spy)
    monkeypatch.setattr(harness, "_density_leg", _fixed_kappa)
    files = _outputs("verify", ensemble, 1, tmp_path)
    curves = {}
    for line in files["ballmass.csv"].decode().splitlines()[2:]:
        fiber, point, _, mass = line.split(",")
        curves.setdefault((int(fiber), int(point)), []).append(float(mass))
    grid = measures.default_radius_grid()
    assert sorted({i for i, _ in curves}) == sorted(fitted)
    assert len(curves) == harness.BALL_CURVE_POINTS * len(fitted)
    for (i, _), mass in curves.items():
        m = fitted[i]
        at_points = measures.ball_mass(m, m.points, grid)
        assert np.all(at_points == mass, axis=1).any()


def test_parsers_name_exactly_the_config_fields():
    assert set(harness._PARSERS) == {
        f.name for f in dataclasses.fields(harness.ExperimentConfig)}


def test_config_file_with_a_radius_key_is_refused(tmp_path):
    # the radius grid is measures.default_radius_grid, not a setting
    path = tmp_path / "run.ini"
    path.write_text("[experiment]\nschema = 1\nseed = 1\nr_max = 0.3\n")
    with pytest.raises(ConfigError, match="unknown keys: r_max"):
        harness.load_config(str(path), environ={})


def test_dimension_report_burns_in_the_configured_steps(monkeypatch):
    # the report's d = 2 replicas and its d >= 3 pinned realizations burn
    # in cfg.burnin steps, as the entropy legs do; a fixed kappa keeps the
    # significance gate out of the way
    seen = []

    def spy(fn, burnin_of):
        def wrapped(*args, **kwargs):
            seen.append(burnin_of(args, kwargs))
            return fn(*args, **kwargs)
        return wrapped
    monkeypatch.setattr(harness, "stationary_lines", spy(
        harness.stationary_lines, lambda a, k: a[2]))
    monkeypatch.setattr(harness, "conditional_fiber_sample", spy(
        harness.conditional_fiber_sample,
        lambda a, k: k["realization_burnin"]))
    monkeypatch.setattr(harness, "_density_leg", lambda cfg, spec, i, s, p:
                        KappaEstimate(kappa=1.0, stderr=0.0,
                                      method="density", fiber_index=i))
    # one orbit for bern2; one stack of six realizations per fiber for
    # diag3eps
    for ensemble, calls in (("bern2", 1), ("diag3eps", 2)):
        seen.clear()
        cfg = harness.load_config(
            None, dict(TINY, ensemble=ensemble, burnin=250), environ={})
        harness.run(cfg, "dimension")
        assert seen == [250] * calls


def test_verify_reports_no_dimension_without_its_density_leg(monkeypatch):
    # a refused density leg leaves the fiber's report without a kappa; no
    # second estimate is drawn on another stream
    calls = []

    def refused(cfg, spec, i, sampler, pools):
        calls.append(i)
        raise BandwidthTooSmall("stub refusal")
    monkeypatch.setattr(harness, "_density_leg", refused)
    cfg = harness.load_config(None, dict(TINY, ensemble="bern2"), environ={})
    bundle = harness.run_verify(cfg)
    assert calls == [1]
    assert bundle.dimension_reports == ()
    assert isinstance(bundle.refusals["entropy density fiber 1"],
                      BandwidthTooSmall)
    err = bundle.refusals["dimension fiber 1"]
    assert isinstance(err, HypothesisNotMet)
    assert "'entropy density fiber 1'" in str(err)


def test_interval_row_above_the_gap_reads_violated():
    # diag3eps at seed 7: the interval kappa_2 sits 2.2 stderr above gap 2
    # while the density kappa_2 sits below it; each route gets its own row
    spectrum = SpectrumEstimate(
        chi=np.array([0.0, -0.03500, -0.06389]), stderr=np.zeros(3),
        n_steps=1, burnin=0, replicas=2,
        gap_stderrs=np.array([0.0001, 0.00009]))
    results = {
        "density": {2: KappaEstimate(kappa=0.02554, stderr=0.00434,
                                     method="density", fiber_index=2)},
        "interval": {2: KappaEstimate(kappa=0.03356, stderr=0.00215,
                                      method="interval", fiber_index=2)}}
    _, gap_rows, _ = harness._entropy_rows(spectrum, results)
    rows = {r.method: r for r in gap_rows}
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


def test_verify_on_a_spec_file_reads_it_once(monkeypatch, tmp_path):
    # one spec object serves every leg: the file is opened and checked
    # once, so d cannot change between legs, and its word tables are built
    # once
    path = tmp_path / "onespec.txt"
    path.write_text(to_text(dataclasses.replace(bern2(), name="onespec")))
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)
    tabled = []   # holds every spec tabled, so none leaves _WORD_TABLES
    real_tables = dynamics._word_tables

    def spying_tables(spec):
        tabled.append(spec)
        return real_tables(spec)
    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(dynamics, "_word_tables", spying_tables)
    cfg = harness.load_config(None, dict(TINY, ensemble=str(path)), environ={})
    harness.run_verify(cfg)
    assert len(opened) == 1
    assert len({id(spec) for spec in tabled}) == 1
    assert [s.name for s in dynamics._WORD_TABLES].count("onespec") == 1


class _KeyLog(SeededSampler):
    """A sampler that logs the stream key of itself and of every child."""

    def __init__(self, seed, stream=(), log=None):
        super().__init__(seed, stream)
        self.log = [] if log is None else log
        self.log.append(self.stream)

    def child(self, *subkey):
        return _KeyLog(self.seed, self.stream + subkey, self.log)


@pytest.mark.parametrize("ensemble", ["bern2", "diag3eps"])
def test_ball_curve_centers_draw_on_a_stream_of_their_own(ensemble):
    # two generators on one key start from the same bits, so the curves'
    # centers would follow the draws of the sample they are picked from.
    # A refused kappa still leaves the curves of every fiber
    cfg = harness.load_config(None, dict(TINY, ensemble=ensemble), environ={})
    spec, sampler = cfg.spec(), _KeyLog(cfg.seed)

    def refused(i):
        raise HypothesisNotMet("stub refusal")
    refusals = {}
    reports, curves = harness._dimension_legs(cfg, spec, None, refused,
                                              sampler, refusals)
    assert reports == () and len(refusals) == spec.dim - 1
    assert len(curves) == harness.BALL_CURVE_POINTS * (spec.dim - 1)
    assert (6, 1) in sampler.log
    assert len(set(sampler.log)) == len(sampler.log)


def test_ball_curves_of_a_measure_with_few_points():
    # a sample with fewer points than BALL_CURVE_POINTS gives one curve
    # per point, not a crash
    curves = harness._ball_curves(1, np.array([0.1, 0.5, 1.0, 2.0]),
                                  SeededSampler(3))
    assert len(curves) == 4
    assert all(mass[-1] > 0 for _, _, _, mass in curves)


def test_negative_bars_stay_inside_the_figure(tmp_path):
    # a kappa just below zero, as a default rot2 verify reads at seed 7
    # (-0.00019), hangs below the zero line: every rect of the figure has
    # a nonnegative width and height and lies inside the viewBox
    path = tmp_path / "kappa_gap.svg"
    _svg.bar_pairs(path, "fiber entropy against exponent gap", "nats/step",
                   ["fiber 1 density", "fiber 1 interval"], [-0.00019, 0.3],
                   [0.0, 0.25], ("kappa", "gap"))
    root = ElementTree.parse(path).getroot()
    _, _, width, height = map(float, root.get("viewBox").split())
    rects = root.iter("{http://www.w3.org/2000/svg}rect")
    boxes = [[float(r.get(key, 0.0)) for key in ("x", "y", "width", "height")]
             for r in rects]
    assert len(boxes) == 1 + 4 + 2   # background, bars, legend
    for x, y, w, h in boxes:
        assert w >= 0 and h >= 0
        assert 0 <= x <= x + w <= width and 0 <= y <= y + h <= height
