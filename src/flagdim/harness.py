"""Experiment orchestration: config, job graph, persistence, figures.

A run is a pure function of (config, seed): every estimator receives its
own child sampler keyed by a fixed job tag, cross-job reductions happen
in tag order, and emitted files carry no clocks or machine identifiers,
so outputs are byte-identical across repeats and across thread counts.

Every command is a selection of verify's legs (``COMMANDS``) and runs
through one function, ``run``, on verify's streams, so a leg writes the
same rows whichever command selects it.  ``run`` builds the ensemble spec
once and hands that one object to the spectrum and to every leg, so a
spec file is read and checked once per run and its word tables are built
once.  It runs one spectrum, then the selected jobs of the density
route, the interval route and the decay curve, and then the dimension
reports: ``spectrum`` selects none, ``entropy`` the two routes,
``dimension`` the density route and the reports, and ``verify`` all of
them.  The density leg (``_density_leg``) is the one place that picks
the entropy estimator by dimension: ``furstenberg_entropy_d2`` for
d = 2, ``kappa_density_estimator`` otherwise.  The dimension report
takes the run's spectrum and its density leg's kappa as inputs; a fiber
whose density leg was refused gets no report.  One
function (``_dimension_samples``) picks the samples behind each report
by dimension, as ``_density_leg`` picks the estimator: stationary lines
for d = 2, the conditionals over PIN_REALIZATIONS pinned pasts
otherwise.  They are arrays of fiber coordinates in draw order.  The
report fits them and the ball curves read the first of them, so each
fiber's samples are drawn once; both pick their points by index into a
sample and build a measure only to count ball masses, so neither pick
depends on the completion frame.  The d >= 3 density route and the
conditional samples behind the dimension report pin entropy.PIN_LENGTH
steps; the interval route reads its pools with no pin.  Settings the
config does not carry (the pin, tail-pool burn-ins, query counts, the
significance gate, the sample sizes and radius grid of every dimension
fit) are module constants.

Every route (the density legs, the interval legs, the dimension reports
with their ball curves) is one job that runs its fibers in order and
catches each fiber's refusal under that fiber's leg name.  Each job
holds one bank of tail pools for all its fibers (``_tail_pools``), drawn
at its first read; the estimators draw none, and the density and
dimension legs read theirs only on d >= 3.  The banks' streams, as keys
under the run's seed:

    density route       (2, 1, 1) and (2, 1, 2)
    interval route      (3, 1, 1) and (3, 1, 2)
    dimension reports   PIN_REALIZATIONS pools in turn on (4, 1, 600, 1, 1)

The ball curves of fiber i pick their centers on (6, i), a stream no
sample reads.  A bank's streams do not depend on the fibers the run
covers, so a ``fiber_index = 2`` run reads the pools of an "all" run and
writes its fiber-2 rows.  The samples are drawn before the report's
gates, so the curves are written and the reports' bank is drawn even
when every report refuses.  Every bank goes when its job ends.  Sharing
is sound because a tail pool is a sample of the one stationary measure
on flags, whichever fiber reads it, and no output combines two fibers'
estimates; each fiber's stderr leaves out the pools' error.  A pool
holds the d - 1 leading columns of its flags, all any fiber reads.

The config format is INI with one [experiment] section and a mandatory
schema version; unknown sections or keys are hard errors.  Every field
can be overridden by an environment variable named FLAGDIM_<FIELD> (the
documented prefix), and command-line flags override both.

The ensemble field names a benchmark (rot2, bern2, diag3eps, iso2, iso3)
or a path to an ensemble spec file.  Spec files are plain text, one
"key = value" per line after a schema header, vectors as whitespace
separated floats and matrices as semicolon separated rows, with one
"atom =" line per support atom:

    flagdim ensemble schema 1
    name = contraction
    kind = finite_support
    dim = 2
    probs = 1.0
    atom = 2.0 0.0 ; 0.0 0.5

Kinds and their keys: finite_support (probs, atom...) and
rotation_invariant (stretch).  Blank lines and lines starting with # are
ignored; ensemble.to_text / ensemble.from_text round trip exactly.  A
spec file is checked as it is loaded (ensemble.check_spec), so a bad
entry stops the command with InvalidSpec and an error.csv.
"""

import configparser
import csv
import functools
import os
from dataclasses import dataclass, fields

import numpy as np

from . import _svg
from .dynamics import (interval_decay_curve, lyapunov_spectrum,
                       stationary_flag_pool, stationary_lines)
from .ensemble import (BENCHMARKS, SeededSampler, check_spec, from_text,
                       mean_log_abs_det, validate)
from .entropy import (SIGNIFICANCE, TAIL_BURNIN, GapRow,
                      conditional_fiber_sample, dimension_formula_report,
                      furstenberg_entropy_d2, kappa_density_estimator,
                      kappa_interval_estimator)
from .errors import (AtomicFiber, BandwidthTooSmall, ConfigError, GapTooSmall,
                     HypothesisNotMet, NoAcceptedReplicas)
from .measures import EmpiricalCircleMeasure, ball_mass, default_radius_grid
from .version import __version__

SCHEMA_VERSION = 1
ENV_PREFIX = "FLAGDIM_"
BALL_CURVE_POINTS = 6    # sample points behind the dimension figure
PIN_REALIZATIONS = 6     # d >= 3 dimension reports: pinned pasts sampled
LINE_REPLICAS = 1000     # d = 2 dimension sample: independent replicas read
STATIONARY_SAMPLES = 100_000   # d = 2 dimension sample: stationary angles read

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
        elif int(self.seed) < 0:
            problems.append("seed must be nonnegative")
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

    def decay_grid(self):
        """The depths n of verify's interval decay curve, up to interval_n."""
        n = int(self.interval_n)
        # a set rather than np.unique, which imports numpy.ma on first use
        return sorted(set(np.linspace(min(10, n), n, 8, dtype=int).tolist()))

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
    "bandwidth": float,
    "seed": int,
    "out_dir": str,
    "emit_figures": lambda s: {"true": True, "1": True, "yes": True,
                               "false": False, "0": False,
                               "no": False}[s.lower()],
}


def load_config(path=None, overrides=None, environ=None):
    """Config from file, then FLAGDIM_* environment, then overrides.

    A string from any of the three is parsed as the file's would be.
    """
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
    values.update(overrides or {})
    parsed = {}
    for name, raw in values.items():
        try:
            parsed[name] = _PARSERS[name](raw) if isinstance(raw, str) else raw
        except (ValueError, KeyError):
            raise ConfigError(f"bad value for {name}: {raw!r}") from None
    return ExperimentConfig(**parsed).validate()


def _refusal(err):
    return f"{type(err).__name__}: {err}"


@dataclass(frozen=True, eq=False)
class ResultBundle:
    """Self-describing result set: every number traces to (config, seed)."""

    config: dict
    version: str
    spectrum: object
    kappas: tuple
    gap_rows: tuple
    agreement: dict
    dimension_reports: tuple
    decay: object                     # None: not selected or refused
    ball_curves: tuple                # (fiber, point, r array, mass array)
    refusals: dict                    # leg -> gate error
    diagnostics: dict

    def summary_lines(self):
        cfg = self.config
        out = [f"flagdim {self.version} verify-style report",
               f"ensemble {cfg['ensemble']} seed {cfg['seed']}",
               ""]
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

    def first_refusal(self):
        """The first refused leg's gate error, or None: legs in the order
        they feed each other, each kind fiber by fiber, so neither the leg
        names nor the order threads finish in decide it."""
        kinds = ("entropy density", "entropy interval", "interval decay",
                 "dimension")

        def order(item):
            kind, _, fiber = item[0].partition(" fiber ")
            return kinds.index(kind), int(fiber or 0)
        return min(self.refusals.items(), key=order, default=(None, None))[1]


def _run_jobs(jobs, threads):
    """jobs: list of (tag, callable); results keyed by tag, in tag order.

    Scheduling never touches results: each callable owns a child sampler
    derived from its tag, and this reduction is a fixed-order dict build.
    """
    if threads <= 1 or len(jobs) <= 1:
        return {tag: fn() for tag, fn in jobs}
    # imported here: a one-thread run never loads it, nor the logging
    # module it imports
    from concurrent.futures import ThreadPoolExecutor
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


def _tail_pools(cfg, spec, *streams):
    """One pool of ``cfg.tail_replicas`` tail flags per stream, each
    TAIL_BURNIN steps from the standard flag; a stream named twice draws
    its pools in turn.

    A pool holds each flag's d - 1 leading columns (n, d, d - 1), which
    are those of full flags bit for bit: V_d = R^d, no reader reads the
    last column, and Gram-Schmidt never reads a later column.
    """
    return [stationary_flag_pool(spec, cfg.tail_replicas, TAIL_BURNIN, s,
                                 columns=spec.dim - 1)
            for s in streams]


def _route(cfg, spec, name, bank, leg, refusals):
    """One route's job: ``leg(i, pools)`` for every fiber, in fiber order.

    ``pools()`` returns ``bank()``, drawn at the first call and read by
    every later fiber; a leg that never calls it draws no bank, and the
    draw goes when the job ends.  A fiber's refusal is kept as leg
    "<name> fiber i" and stops that fiber only.  Returns {fiber: result}
    for the fibers not refused.
    """
    def run():
        pools = functools.cache(bank)
        results = {}
        for i in cfg.fibers(spec.dim):
            try:
                results[i] = leg(i, pools)
            except GATE_ERRORS as err:
                refusals[f"{name} fiber {i}"] = err
        return results
    return run


def _run_diagnostics(spec, spectrum):
    """Checks of the spectrum against the ensemble: sum chi = E log|det A|.

    The spectrum reads chi_d as the draws' summed log|det A_t| less the
    other exponents' sum (``lyapunov_spectrum``), so sum_chi is the
    draws' mean log|det A_t| by construction: it checks the draws against
    E log|det A| summed over the support, not the spectrum's advance.
    """
    return {"sum_chi": float(spectrum.chi.sum()),
            "mean_log_abs_det": mean_log_abs_det(spec)}


def _density_leg(cfg, spec, i, sampler, pools):
    """Density-route kappa of fiber i; the estimator follows the dimension.

    ``pools()`` returns the route's bank, which only the d >= 3 estimator
    reads.
    """
    if spec.dim == 2:
        # cfg.burnin is for single orbits; the replica pool keeps
        # the estimator's own burn-in, as the d >= 3 tail pools do
        return furstenberg_entropy_d2(
            spec, sampler, tail_replicas=cfg.tail_replicas,
            orbit_samples=cfg.orbit_samples, bandwidth=cfg.bandwidth)
    return kappa_density_estimator(
        spec, i, pools(), sampler, orbit_samples=cfg.orbit_samples,
        bandwidth=cfg.bandwidth, realization_burnin=cfg.burnin)


def _jobs(cfg, spec, sampler, refusals):
    """verify's jobs before its dimension reports, as (tag, callable) in
    tag order: the density and interval routes and the decay curve."""
    def density(i, pools):
        return _density_leg(cfg, spec, i, sampler.child(2, i), pools)

    def interval(i, pools):
        return kappa_interval_estimator(
            spec, i, pools(), sampler.child(3, i), n=cfg.interval_n,
            replicas=cfg.replicas, realization_burnin=cfg.burnin)

    def decay():
        return interval_decay_curve(spec, cfg.fibers(spec.dim)[0],
                                    cfg.decay_grid(), cfg.replicas,
                                    sampler.child(5), burnin=cfg.burnin)
    return [
        ("density", _route(
            cfg, spec, "entropy density",
            lambda: _tail_pools(cfg, spec, sampler.child(2, 1, 1),
                                sampler.child(2, 1, 2)),
            density, refusals)),
        ("interval", _route(
            cfg, spec, "entropy interval",
            lambda: _tail_pools(cfg, spec, sampler.child(3, 1, 1),
                                sampler.child(3, 1, 2)),
            interval, refusals)),
        ("decay", _catching(decay, refusals, "interval decay"))]


def _entropy_rows(spectrum, results):
    """The kappas, gap rows and route agreement of the entropy legs that
    ran, fiber by fiber; ``results`` maps a route to {fiber: estimate}."""
    kappas = []
    rows = []
    agreement = {}
    density, interval = results.get("density", {}), results.get("interval", {})
    for i in sorted(density.keys() | interval.keys()):
        kd, ki = density.get(i), interval.get(i)
        for est in (kd, ki):
            if est is not None:
                kappas.append(est)
                rows.append(GapRow(fiber_index=i, method=est.method,
                                   kappa=est.kappa, kappa_stderr=est.stderr,
                                   gap=spectrum.gap(i),
                                   gap_stderr=spectrum.gap_stderr(i)))
        if kd is not None and ki is not None:
            both_zero = (abs(kd.kappa) <= SIGNIFICANCE * kd.stderr
                         and abs(ki.kappa) <= SIGNIFICANCE * ki.stderr)
            if not both_zero:
                # relative agreement is vacuous between two zeros
                scale = max(abs(kd.kappa), abs(ki.kappa), 1e-12)
                agreement[i] = (kd.kappa, ki.kappa,
                                abs(kd.kappa - ki.kappa) / scale)
    return tuple(kappas), tuple(rows), agreement


def _dimension_samples(cfg, spec, i, sampler, pools):
    """The samples of fiber i that its dimension report fits and its
    ball curves read, arrays of fiber coordinates in draw order; the
    sample follows the dimension.

    ``sampler`` is the report's stream and ``pools()`` the reports' bank,
    read only when d >= 3.  d = 2: the fiber measure is the stationary measure
    itself, read as STATIONARY_SAMPLES angles off LINE_REPLICAS
    independent replicas (``stationary_lines``), each read after
    ``cfg.burnin`` steps and then every THINNING steps.  Independent
    replicas rather than one orbit: on bern2 the 4 theta mode barely
    mixes (cos 4 theta has autocorrelation -0.64 at lag 5 along one
    orbit), so the points of one thinned orbit sample nu poorly, while
    reads of different replicas are independent.  The angles stay in the
    order ``stationary_lines`` draws them.  d >= 3: the conditionals over
    one pinned past per pool of the bank (``conditional_fiber_sample``).
    """
    if spec.dim == 2:
        return [stationary_lines(spec, LINE_REPLICAS, cfg.burnin,
                                 STATIONARY_SAMPLES, sampler.child(500))]
    return conditional_fiber_sample(spec, i, pools(), sampler.child(600, i),
                                    realization_burnin=cfg.burnin)


def _ball_curves(i, sample, centers):
    """Radius/mass curves behind the dimension figure (and its CSV): the
    ball masses of fiber i's ``sample`` around up to BALL_CURVE_POINTS of
    its points, drawn from ``centers``, a stream no sample reads, by index
    into the sample in draw order."""
    grid = default_radius_grid()
    idx = centers.rng.choice(len(sample),
                             size=min(BALL_CURVE_POINTS, len(sample)),
                             replace=False)
    masses = ball_mass(EmpiricalCircleMeasure.from_samples(sample),
                       sample[idx], grid)
    return [(i, p, grid, curve) for p, curve in enumerate(masses)]


def _dimension_legs(cfg, spec, spectrum, kappa, sampler, refusals):
    """Ball curves and dimension reports of every fiber, in fiber order.

    One route job: each fiber's samples are drawn first, its curves are
    read off the first sample, and then its report fits them all.
    ``kappa(i)`` returns fiber i's density estimate or raises the gate
    error that refuses the fiber's report; the curves are written either
    way.
    """
    curves = []

    def report(i, pools):
        stream = sampler.child(4, i)
        samples = _dimension_samples(cfg, spec, i, stream, pools)
        curves.extend(_ball_curves(i, samples[0], sampler.child(6, i)))
        return dimension_formula_report(spec, i, spectrum, kappa(i),
                                        samples, stream)
    reports = _route(
        cfg, spec, "dimension",
        lambda: _tail_pools(cfg, spec, *[sampler.child(4, 1, 600, 1, 1)]
                            * PIN_REALIZATIONS),
        report, refusals)()
    return tuple(reports.values()), tuple(curves)


# each command's legs, a selection of verify's, and the bundle field it
# must fill: a run that leaves that field empty had every leg that fills
# it refused, and the command exits 2
COMMANDS = {"spectrum": ((), "spectrum"),
            "entropy": (("density", "interval"), "kappas"),
            "dimension": (("density", "dimension"), "dimension_reports"),
            "verify": (("density", "interval", "decay", "dimension"),
                       "kappas")}


def run(cfg, command, threads=1):
    """Run ``command``: the legs of verify it selects, on verify's streams.

    The selected jobs of ``_jobs`` run on up to ``threads`` threads; the
    dimension reports run after them, since they read the density legs'
    kappas.
    """
    legs, _ = COMMANDS[command]
    if "decay" in legs and len(cfg.decay_grid()) < 2:
        raise ConfigError(f"interval_n {cfg.interval_n} gives a decay grid "
                          "of one depth; a slope needs two")
    sampler = SeededSampler(int(cfg.seed))
    spec = cfg.spec()
    cfg.fibers(spec.dim)   # an out-of-range fiber is refused before any draw
    spectrum = lyapunov_spectrum(spec, cfg.spectrum_steps, burnin=cfg.burnin,
                                 sampler=sampler.child(1))
    refusals = {}
    results = _run_jobs([job for job in _jobs(cfg, spec, sampler, refusals)
                         if job[0] in legs], threads)
    kappas, rows, agreement = _entropy_rows(spectrum, results)
    reports, curves = (), ()
    if "dimension" in legs:
        def kappa(i):
            est = results["density"].get(i)
            if est is None:
                raise HypothesisNotMet(
                    f"no kappa[{i}]: the leg 'entropy density fiber {i}' "
                    "was refused")
            return est
        reports, curves = _dimension_legs(cfg, spec, spectrum, kappa,
                                          sampler, refusals)
    return ResultBundle(config=cfg.echo(), version=__version__,
                        spectrum=spectrum, kappas=kappas, gap_rows=rows,
                        agreement=agreement, dimension_reports=reports,
                        decay=results.get("decay"), ball_curves=curves,
                        refusals=refusals,
                        diagnostics=_run_diagnostics(spec, spectrum))


# flagbench/worker.py calls these two by name
def run_spectrum(cfg, threads=1):
    return run(cfg, "spectrum", threads)


def run_verify(cfg, threads=1):
    return run(cfg, "verify", threads)


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
    ``emit_figures`` is off.  Any other flagdim output in ``out_dir`` (an
    earlier run's, ``error.csv`` among them) is removed.

    Every figure's numbers are also present in one of the CSVs.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    def out(name):
        paths.append(os.path.join(out_dir, name))
        return paths[-1]

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
    remove_outputs(out_dir, keep=paths)
    return paths


# every file a run or its error record writes into the out dir
OUTPUT_NAMES = ("spectrum.csv", "kappa.csv", "dimension.csv",
                "diagnostics.csv", "decay.csv", "ballmass.csv", "summary.txt",
                "error.csv", "kappa_gap.svg", "interval_decay.svg",
                "dimension_slopes.svg")


def remove_outputs(out_dir, keep=()):
    """Remove every flagdim output in ``out_dir`` whose path is not in
    ``keep``.  An earlier run's file that this run does not write would
    read as this run's (a stale error.csv as a refusal), so a run keeps
    only what it wrote, and a failed run none of them."""
    for name in OUTPUT_NAMES:
        path = os.path.join(out_dir, name)
        if path not in keep and os.path.isfile(path):
            os.remove(path)


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
