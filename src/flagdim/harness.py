"""Experiment orchestration: config, job graph, persistence, figures.

A run is a pure function of (config, seed): every estimator receives its
own child sampler keyed by a fixed job tag, cross-job reductions happen
in tag order, and emitted files carry no clocks or machine identifiers,
so outputs are byte-identical across repeats and across thread counts.

Each command builds its ensemble spec once and hands that one object to
the spectrum and to every leg, so a spec file is read and checked once
per run and its word tables are built once.  Each command runs one
spectrum and then its legs.  The density leg
(``_density_leg``) is the one place that picks the entropy estimator by
dimension: ``furstenberg_entropy_d2`` for d = 2, ``kappa_density_estimator``
otherwise.  The dimension report takes the run's spectrum and a density
kappa as inputs: ``verify`` hands it the estimate of its own density leg
(a fiber whose density leg was refused gets no report), and ``dimension``
runs the density leg for the report on streams of its own.  The config's
``pin_length`` governs the d >= 3 density route and the conditional
samples behind the dimension report and the ball curves; the interval
route reads its pools with no pin.  Settings the config does not carry
(tail-pool burn-ins, query counts, the significance gate, the radius grid
of every dimension fit) are module constants.

The config format is INI with one [experiment] section and a mandatory
schema version; unknown sections or keys are hard errors.  Every field
can be overridden by an environment variable named FLAGDIM_<FIELD> (the
documented prefix), and command-line flags override both.

The ensemble field names a benchmark (rot2, bern2, diag3eps) or a path
to an ensemble spec file.  Spec files are plain text, one "key = value"
per line after a schema header, vectors as whitespace separated floats
and matrices as semicolon separated rows, with one "atom =" line per
support atom:

    flagdim ensemble schema 1
    name = contraction
    kind = finite_support
    dim = 2
    probs = 1.0
    atom = 2.0 0.0 ; 0.0 0.5

Kinds and their keys: finite_support (probs, atom...), perturbed
(probs, atom..., magnitude), rotation_invariant (stretch), diagonal
(log_means, log_sds).  Blank lines and lines starting with # are
ignored; ensemble.to_text / ensemble.from_text round trip exactly.  A
spec file is checked as it is loaded (ensemble.check_spec), so a bad
entry stops the command with InvalidSpec and an error.csv.
"""

import configparser
import csv
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import _svg
from .dynamics import (interval_decay_curve, lyapunov_spectrum,
                       stationary_lines)
from .ensemble import (BENCHMARKS, SeededSampler, check_spec, from_text,
                       mean_log_abs_det, validate)
from .entropy import (LINE_REPLICAS, GapRow, conditional_fiber_sample,
                      dimension_formula_report, furstenberg_entropy_d2,
                      kappa_density_estimator, kappa_interval_estimator)
from .errors import (AtomicFiber, BandwidthTooSmall, ConfigError, GapTooSmall,
                     HypothesisNotMet, NoAcceptedReplicas)
from .measures import EmpiricalCircleMeasure, ball_mass, default_radius_grid
from .version import __version__

SCHEMA_VERSION = 1
ENV_PREFIX = "FLAGDIM_"
BALL_CURVE_POINTS = 6    # sample points behind the dimension figure
BALL_CURVE_SAMPLE = 10_000   # d = 2: stationary angles those points come from

# estimators refuse rather than report under a violated hypothesis; the
# CLI maps exactly these to exit code 2
GATE_ERRORS = (AtomicFiber, BandwidthTooSmall, GapTooSmall, HypothesisNotMet,
               NoAcceptedReplicas)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on besides the code itself.

    The seed is mandatory and has no wall-clock fallback; a missing seed
    is a ConfigError, not a silent nondeterminism.
    """

    ensemble: str = "bern2"
    fiber_index: object = "all"     # positive int or "all"
    spectrum_steps: int = 100_000
    burnin: int = 1000
    interval_n: int = 100
    replicas: int = 100
    orbit_samples: int = 100
    tail_replicas: int = 10_000
    pin_length: object = None       # None: per-estimator default
    bandwidth: float = 0.05
    seed: object = None
    out_dir: str = "out"
    emit_figures: bool = True

    def validate(self):
        problems = []
        if self.ensemble not in BENCHMARKS and not os.path.isfile(self.ensemble):
            problems.append(
                f"ensemble {self.ensemble!r} is neither a benchmark "
                f"({', '.join(sorted(BENCHMARKS))}) nor a spec file")
        if self.seed is None:
            problems.append("seed is mandatory (there is no clock default)")
        for name in ("spectrum_steps", "burnin", "interval_n", "replicas",
                     "tail_replicas"):
            if int(getattr(self, name)) <= 0:
                problems.append(f"{name} must be positive")
        if not 2 <= int(self.orbit_samples) <= int(self.tail_replicas):
            problems.append("orbit_samples must lie between 2 and tail_replicas")
        if not 0 < float(self.bandwidth) < np.pi / 2:
            problems.append("bandwidth must lie in (0, pi/2)")
        if self.fiber_index != "all" and int(self.fiber_index) < 1:
            problems.append("fiber_index must be positive or 'all'")
        if self.pin_length is not None and int(self.pin_length) < 0:
            problems.append("pin_length must be nonnegative")
        if problems:
            raise ConfigError("; ".join(problems))
        return self

    def spec(self):
        if self.ensemble in BENCHMARKS:
            return BENCHMARKS[self.ensemble]()
        with open(self.ensemble) as fh:
            spec = from_text(fh.read())
        check_spec(spec)
        return spec

    def fibers(self, d):
        """The fibers a run covers on a spec of dimension ``d``."""
        if self.fiber_index == "all":
            return tuple(range(1, d))
        i = int(self.fiber_index)
        if not 1 <= i <= d - 1:
            raise ConfigError(f"fiber_index {i} out of range for d = {d}")
        return (i,)

    def echo(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


_PARSERS = {
    "ensemble": str,
    "fiber_index": lambda s: "all" if s == "all" else int(s),
    "spectrum_steps": int,
    "burnin": int,
    "interval_n": int,
    "replicas": int,
    "orbit_samples": int,
    "tail_replicas": int,
    "pin_length": lambda s: None if s == "auto" else int(s),
    "bandwidth": float,
    "seed": int,
    "out_dir": str,
    "emit_figures": lambda s: {"true": True, "1": True, "yes": True,
                               "false": False, "0": False,
                               "no": False}[s.lower()],
}


def load_config(path=None, overrides=None, environ=None):
    """Config from file, then FLAGDIM_* environment, then overrides."""
    values = {}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        extra_sections = set(parser.sections()) - {"experiment"}
        if extra_sections:
            raise ConfigError(
                f"unknown config sections: {', '.join(sorted(extra_sections))}")
        if not parser.has_section("experiment"):
            raise ConfigError(f"{path}: missing [experiment] section")
        section = dict(parser.items("experiment"))
        schema = section.pop("schema", None)
        if schema is None:
            raise ConfigError(f"{path}: missing schema key")
        if int(schema) != SCHEMA_VERSION:
            raise ConfigError(
                f"{path}: schema {schema} unsupported "
                f"(this build reads schema {SCHEMA_VERSION})")
        unknown = set(section) - set(_PARSERS)
        if unknown:
            raise ConfigError(
                f"{path}: unknown keys: {', '.join(sorted(unknown))}")
        values.update(section)
    environ = os.environ if environ is None else environ
    for name in _PARSERS:
        env = environ.get(ENV_PREFIX + name.upper())
        if env is not None:
            values[name] = env
    parsed = {}
    for name, raw in values.items():
        try:
            parsed[name] = _PARSERS[name](raw) if isinstance(raw, str) else raw
        except (ValueError, KeyError):
            raise ConfigError(f"bad value for {name}: {raw!r}") from None
    cfg = ExperimentConfig(**parsed)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


def _refusal(err):
    return f"{type(err).__name__}: {err}"


@dataclass(frozen=True, eq=False)
class ResultBundle:
    """Self-describing result set: every number traces to (config, seed)."""

    config: dict
    version: str
    wall_time: float
    spectrum: object = None
    kappas: tuple = ()
    gap_rows: tuple = ()
    agreement: dict = field(default_factory=dict)
    dimension_reports: tuple = ()
    decay: object = None
    ball_curves: tuple = ()           # (fiber, point, r array, mass array)
    refusals: dict = field(default_factory=dict)   # leg -> gate error
    diagnostics: dict = field(default_factory=dict)

    def summary_lines(self):
        cfg = self.config
        out = [f"flagdim {self.version} verify-style report",
               f"ensemble {cfg['ensemble']} seed {cfg['seed']}",
               ""]
        if self.spectrum is not None:
            s = self.spectrum
            chis = ", ".join(f"chi_{k + 1} = {c:.6f} +- {e:.6f}"
                             for k, (c, e) in enumerate(zip(s.chi, s.stderr)))
            out.append(f"spectrum ({s.n_steps} steps): {chis}")
            for i in range(1, s.dim):
                out.append(f"  gap {i}: {s.gap(i):.6f} +- {s.gap_stderr(i):.6f}")
        for k in self.kappas:
            out.append(k.summary())
        for row in self.gap_rows:
            out.append(row.line())
        for i, (kd, ki, rel) in sorted(self.agreement.items()):
            out.append(f"fiber {i}: density {kd:.5f} vs interval {ki:.5f} "
                       f"(relative difference {rel:.1%})")
        for rep in self.dimension_reports:
            out.extend(rep.lines())
        if self.decay is not None:
            out.append(self.decay.summary())
        for leg, err in sorted(self.refusals.items()):
            out.append(f"{leg}: refused ({_refusal(err)})")
        return out


def _run_jobs(jobs, threads):
    """jobs: list of (tag, callable); results keyed by tag, in tag order.

    Scheduling never touches results: each callable owns a child sampler
    derived from its tag, and this reduction is a fixed-order dict build.
    """
    if threads <= 1 or len(jobs) <= 1:
        return {tag: fn() for tag, fn in jobs}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [(tag, pool.submit(fn)) for tag, fn in jobs]
        return {tag: f.result() for tag, f in futures}


def _catching(fn, refusals, leg):
    def run():
        try:
            return fn()
        except GATE_ERRORS as err:
            refusals[leg] = err
            return None
    return run


def _run_diagnostics(spec, spectrum):
    """Checks of the spectrum against the ensemble: sum chi = E log|det A|."""
    logdet, logdet_err = mean_log_abs_det(spec)
    return {"sum_chi": float(spectrum.chi.sum()),
            "mean_log_abs_det": logdet,
            "mean_log_abs_det_stderr": logdet_err}


def run_spectrum(cfg, threads=1):
    start = time.perf_counter()
    sampler = SeededSampler(int(cfg.seed))
    spec = cfg.spec()
    spectrum = lyapunov_spectrum(spec, cfg.spectrum_steps, burnin=cfg.burnin,
                                 sampler=sampler.child(1))
    return ResultBundle(config=cfg.echo(), version=__version__,
                        wall_time=time.perf_counter() - start,
                        spectrum=spectrum,
                        diagnostics=_run_diagnostics(spec, spectrum))


def _density_leg(cfg, spec, i, sampler):
    """Density-route kappa of fiber i; the estimator follows the dimension."""
    if spec.dim == 2:
        # cfg.burnin is for single orbits; the replica pool keeps
        # the estimator's own burn-in, as the d >= 3 tail pools do
        return furstenberg_entropy_d2(
            spec, tail_replicas=cfg.tail_replicas,
            orbit_samples=cfg.orbit_samples, bandwidth=cfg.bandwidth,
            sampler=sampler)
    return kappa_density_estimator(
        spec, i, pin_length=cfg.pin_length, tail_replicas=cfg.tail_replicas,
        orbit_samples=cfg.orbit_samples, bandwidth=cfg.bandwidth,
        sampler=sampler, realization_burnin=cfg.burnin)


def _entropy_jobs(cfg, spec, sampler, refusals):
    jobs = []
    for i in cfg.fibers(spec.dim):
        def density(i=i):
            return _density_leg(cfg, spec, i, sampler.child(2, i))
        jobs.append((("density", i), _catching(density, refusals,
                                               f"entropy density fiber {i}")))

        def interval(i=i):
            return kappa_interval_estimator(
                spec, i, n=cfg.interval_n, replicas=cfg.replicas,
                tail_replicas=cfg.tail_replicas,
                realization_burnin=cfg.burnin, sampler=sampler.child(3, i))
        jobs.append((("interval", i), _catching(interval, refusals,
                                                f"entropy interval fiber {i}")))
    return jobs


def _entropy_bundle(cfg, spectrum, results, refusals, start):
    kappas = []
    rows = []
    agreement = {}
    for i in cfg.fibers(spectrum.dim):
        kd = results.get(("density", i))
        ki = results.get(("interval", i))
        for est in (kd, ki):
            if est is not None:
                kappas.append(est)
                rows.append(GapRow(fiber_index=i, method=est.method,
                                   kappa=est.kappa, kappa_stderr=est.stderr,
                                   gap=spectrum.gap(i),
                                   gap_stderr=spectrum.gap_stderr(i)))
        if kd is not None and ki is not None:
            both_zero = (abs(kd.kappa) <= 2 * kd.stderr
                         and abs(ki.kappa) <= 2 * ki.stderr)
            if not both_zero:
                # relative agreement is vacuous between two zeros
                scale = max(abs(kd.kappa), abs(ki.kappa), 1e-12)
                agreement[i] = (kd.kappa, ki.kappa,
                                abs(kd.kappa - ki.kappa) / scale)
    return ResultBundle(config=cfg.echo(), version=__version__,
                        wall_time=time.perf_counter() - start,
                        spectrum=spectrum, kappas=tuple(kappas),
                        gap_rows=tuple(rows), agreement=agreement,
                        refusals=refusals)


def run_entropy(cfg, threads=1):
    start = time.perf_counter()
    sampler = SeededSampler(int(cfg.seed))
    spec = cfg.spec()
    spectrum = lyapunov_spectrum(spec, cfg.spectrum_steps,
                                 burnin=cfg.burnin, sampler=sampler.child(1))
    refusals = {}
    results = _run_jobs(_entropy_jobs(cfg, spec, sampler, refusals), threads)
    return _entropy_bundle(cfg, spectrum, results, refusals, start)


def _ball_curves(cfg, spec, i, sampler):
    """Radius/mass curves behind the dimension figure (and its CSV)."""
    if spec.dim == 2:
        measure = EmpiricalCircleMeasure.from_samples(stationary_lines(
            spec, LINE_REPLICAS, cfg.burnin, BALL_CURVE_SAMPLE, sampler))
    else:
        measure = conditional_fiber_sample(
            spec, i, pin_length=cfg.pin_length,
            tail_replicas=cfg.tail_replicas, sampler=sampler,
            realization_burnin=cfg.burnin).measure
    grid = default_radius_grid()
    rng = sampler.child(1).rng
    idx = rng.choice(len(measure.points), size=BALL_CURVE_POINTS,
                     replace=False)
    return [(i, p, grid, ball_mass(measure, measure.points[k], grid))
            for p, k in enumerate(idx)]


def _dimension_legs(cfg, spec, spectrum, kappa, sampler, threads, refusals):
    """Dimension reports and ball curves of every fiber, in fiber order.

    ``kappa(i)`` returns fiber i's density estimate or raises the gate
    error that refuses the fiber's report.
    """
    fibers = cfg.fibers(spec.dim)
    jobs = []
    for i in fibers:
        def report(i=i):
            return dimension_formula_report(
                spec, i, spectrum, kappa(i), sampler=sampler.child(4, i),
                pin_length=cfg.pin_length, tail_replicas=cfg.tail_replicas,
                burnin=cfg.burnin)
        jobs.append((("dimension", i),
                     _catching(report, refusals, f"dimension fiber {i}")))

        def curves(i=i):
            return _ball_curves(cfg, spec, i, sampler.child(6, i))
        jobs.append((("curves", i),
                     _catching(curves, refusals, f"ball curves fiber {i}")))
    results = _run_jobs(jobs, threads)
    reports = tuple(results[("dimension", i)] for i in fibers
                    if results.get(("dimension", i)) is not None)
    curves = []
    for i in fibers:
        curves.extend(results.get(("curves", i)) or ())
    return reports, tuple(curves)


def run_dimension(cfg, threads=1):
    start = time.perf_counter()
    sampler = SeededSampler(int(cfg.seed))
    spec = cfg.spec()
    spectrum = lyapunov_spectrum(spec, cfg.spectrum_steps, burnin=cfg.burnin,
                                 sampler=sampler.child(1))

    def kappa(i):
        # the streams the report drew its own kappa on, kept so that
        # outputs repeat across versions
        key = (4, i, 200) if spec.dim == 2 else (4, i, 200, i)
        return _density_leg(cfg, spec, i, sampler.child(*key))
    refusals = {}
    reports, curves = _dimension_legs(cfg, spec, spectrum, kappa, sampler,
                                      threads, refusals)
    return ResultBundle(config=cfg.echo(), version=__version__,
                        wall_time=time.perf_counter() - start,
                        spectrum=spectrum, dimension_reports=reports,
                        ball_curves=curves, refusals=refusals)


def run_verify(cfg, threads=1):
    """Theorem 1 and Theorem 2 reports end to end, gates allowed."""
    start = time.perf_counter()
    sampler = SeededSampler(int(cfg.seed))
    spec = cfg.spec()
    spectrum = lyapunov_spectrum(spec, cfg.spectrum_steps, burnin=cfg.burnin,
                                 sampler=sampler.child(1))
    refusals = {}
    jobs = _entropy_jobs(cfg, spec, sampler, refusals)

    def decay():
        grid = np.unique(np.linspace(10, cfg.interval_n, 8, dtype=int))
        return interval_decay_curve(spec, cfg.fibers(spec.dim)[0], grid,
                                    cfg.replicas, sampler.child(5),
                                    burnin=cfg.burnin)
    jobs.append((("decay",), _catching(decay, refusals, "interval decay")))
    results = _run_jobs(jobs, threads)
    entropy = _entropy_bundle(cfg, spectrum, results, refusals, start)

    def kappa(i):
        est = results.get(("density", i))
        if est is None:
            raise HypothesisNotMet(
                f"no kappa[{i}]: the leg 'entropy density fiber {i}' "
                "was refused")
        return est
    reports, curves = _dimension_legs(cfg, spec, spectrum, kappa, sampler,
                                      threads, refusals)
    return ResultBundle(config=cfg.echo(), version=__version__,
                        wall_time=time.perf_counter() - start,
                        spectrum=spectrum, kappas=entropy.kappas,
                        gap_rows=entropy.gap_rows,
                        agreement=entropy.agreement,
                        dimension_reports=reports,
                        decay=results.get(("decay",)),
                        ball_curves=curves, refusals=refusals,
                        diagnostics=_run_diagnostics(spec, spectrum))


def _write_csv(path, schema_tag, header, rows):
    """First line names the schema so readers can check what they parse."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# flagdim {schema_tag} schema {SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


def emit_outputs(bundle, out_dir):
    """CSV tables, a text summary, and SVG figures unless the config's
    ``emit_figures`` is off.

    Every figure's numbers are also present in one of the CSVs.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    def out(name):
        paths.append(os.path.join(out_dir, name))
        return paths[-1]

    if bundle.spectrum is not None:
        s = bundle.spectrum
        rows = [(k + 1, float(s.chi[k]), float(s.stderr[k]),
                 float(s.gap(k + 1)) if k + 1 < s.dim else "",
                 float(s.gap_stderr(k + 1)) if k + 1 < s.dim else "")
                for k in range(s.dim)]
        _write_csv(out("spectrum.csv"), "spectrum",
                   ["i", "chi", "stderr", "gap_i", "gap_stderr"], rows)
    if bundle.kappas:
        rows = [(k.fiber_index, k.method, float(k.kappa), float(k.stderr),
                 int(k.diagnostics.get("effective_samples", 0)))
                for k in bundle.kappas]
        _write_csv(out("kappa.csv"), "kappa",
                   ["fiber", "method", "kappa", "stderr",
                    "effective_samples"], rows)
    if bundle.dimension_reports:
        rows = [(r.fiber_index, float(r.kappa), float(r.kappa_stderr),
                 float(r.gap), float(r.predicted), float(r.mean_slope),
                 float(r.slope_iqr), r.n_points, r.skipped_points)
                for r in bundle.dimension_reports]
        _write_csv(out("dimension.csv"), "dimension",
                   ["fiber", "kappa", "kappa_stderr", "gap", "predicted",
                    "mean_slope", "slope_iqr", "n_points", "skipped"], rows)
    diag_rows = [("run", k, v) for k, v in sorted(bundle.diagnostics.items())]
    for k in bundle.kappas:
        tag = f"kappa {k.method} fiber {k.fiber_index}"
        diag_rows += [(tag, name, v)
                      for name, v in sorted(k.diagnostics.items())]
    for i, (kd, ki, rel) in sorted(bundle.agreement.items()):
        diag_rows.append((f"agreement fiber {i}", "relative_difference",
                          float(rel)))
    for leg, err in sorted(bundle.refusals.items()):
        diag_rows.append(("refusal", leg, _refusal(err)))
    _write_csv(out("diagnostics.csv"), "diagnostics",
               ["section", "key", "value"], diag_rows)
    if bundle.decay is not None:
        d = bundle.decay
        rows = list(zip((int(n) for n in d.n_grid),
                        (float(v) for v in d.mean_log_length)))
        _write_csv(out("decay.csv"), "decay", ["n", "mean_log_length"], rows)
    if bundle.ball_curves:
        rows = [(i, p, float(r), float(m))
                for (i, p, grid, mass) in bundle.ball_curves
                for r, m in zip(grid, mass)]
        _write_csv(out("ballmass.csv"), "ballmass",
                   ["fiber", "point", "radius", "mass"], rows)
    with open(out("summary.txt"), "w") as fh:
        fh.write("\n".join(bundle.summary_lines()) + "\n")
    if bundle.config["emit_figures"]:
        _emit_figures(bundle, out_dir, out)
    return paths


def _emit_figures(bundle, out_dir, out):
    if bundle.gap_rows:
        cats = [f"fiber {r.fiber_index} {r.method}" for r in bundle.gap_rows]
        _svg.bar_pairs(out("kappa_gap.svg"),
                       "fiber entropy against exponent gap", "nats/step",
                       cats, [r.kappa for r in bundle.gap_rows],
                       [r.gap for r in bundle.gap_rows], ("kappa", "gap"))
    if bundle.decay is not None:
        d = bundle.decay
        t = d.n_grid.astype(float)
        fit = d.mean_log_length.mean() + d.slope * (t - t.mean())
        _svg.line_plot(out("interval_decay.svg"),
                       "pulled-forward interval length", "n",
                       "mean log length(J_n)",
                       [("measured", t, d.mean_log_length, "both"),
                        (f"slope {d.slope:.4f}", t, fit, "line")])
    if bundle.ball_curves:
        series = []
        for (i, p, grid, mass) in bundle.ball_curves:
            keep = mass > 0
            if keep.sum() >= 2:
                series.append((f"fiber {i} pt {p}" if p < 2 else "",
                               np.log(grid[keep]), np.log(mass[keep]),
                               "both"))
        if series:
            _svg.line_plot(out("dimension_slopes.svg"),
                           "ball mass scaling at sample points", "log r",
                           "log mass", series)


def ensemble_report(cfg):
    return validate(cfg.spec())
