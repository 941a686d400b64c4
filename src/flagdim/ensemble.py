"""Matrix ensembles: description, validation, and reproducible sampling.

An ensemble is the distribution of the i.i.d. matrices driving the flag
dynamics.  Four kinds are supported:

- ``finite_support``: a list of matrices with probabilities.  Every moment
  hypothesis holds automatically, so this is the benchmark family.
- ``rotation_invariant``: Haar orthogonal matrices times a fixed stretch.
  With the identity stretch the fiber action preserves arc length, the
  entropy vanishes, and the ensemble serves as the zero control.
- ``diagonal``: diagonal matrices with normal log-entries.
- ``perturbed``: a finite-support base composed with a small random
  rotation of fixed magnitude (orthonormalized I + eps K, K random skew).

Sampling is counter-based: a (seed, stream) pair fully determines every
draw.  Each job of a run draws on streams of its own, so jobs can run in
any order or thread count with identical output; the replicas of one
stack share the stack's stream (see ``dynamics``).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec
from .flagcore import COND_CAP, orthonormalize

KINDS = ("finite_support", "rotation_invariant", "diagonal", "perturbed")
SPEC_SCHEMA = 1
MOMENT_DRAWS = 4096      # Monte Carlo draws behind validate's moments
MOMENT_SEED = 0
LOGDET_DRAWS = 4096      # Monte Carlo draws behind mean_log_abs_det
LOGDET_SEED = 0
PROB_TOL = np.sqrt(np.finfo(float).eps)   # Generator.choice's tolerance on sum(p)


class SeededSampler:
    """A private RNG stream identified by (seed, stream key).

    ``child(j)`` derives an independent stream by extending the key; the
    harness gives each orchestration unit its own child so results do not
    depend on scheduling.
    """

    def __init__(self, seed, stream=()):
        if isinstance(stream, (int, np.integer)):
            stream = (int(stream),)
        self.seed = int(seed)
        self.stream = tuple(int(s) for s in stream)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)
        self.rng = np.random.Generator(np.random.Philox(seq))

    def child(self, *subkey):
        return SeededSampler(self.seed, self.stream + subkey)

    def __repr__(self):
        return f"SeededSampler(seed={self.seed}, stream={self.stream})"


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """Description of the matrix distribution.

    ``params`` holds the kind-specific payload:

    - finite_support: atoms (k, d, d array), probs (k,)
    - rotation_invariant: stretch (d, d)
    - diagonal: log_means (d,), log_sds (d,)
    - perturbed: atoms, probs, magnitude (scalar rotation size)
    """

    name: str
    dim: int
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec([f"unknown ensemble kind {self.kind!r}"])


def finite_support(name, atoms, probs):
    atoms = np.array([np.asarray(a, dtype=float) for a in atoms])
    probs = np.asarray(probs, dtype=float)
    return EnsembleSpec(
        name=name,
        dim=atoms.shape[-1],
        kind="finite_support",
        params={"atoms": atoms, "probs": probs},
    )


def check_spec(spec):
    """Raise InvalidSpec with the full reason list on structural problems.

    Draws nothing, so a spec file is checked this way as it is loaded:
    non-finite entries and probabilities that are not a distribution are
    refused before any orbit runs.
    """
    reasons = []
    d = spec.dim
    if d < 2:
        reasons.append(f"dimension must be at least 2, got {d}")
    if spec.kind in ("finite_support", "perturbed"):
        atoms = np.asarray(spec.params.get("atoms", np.zeros((0, d, d))), dtype=float)
        probs = np.asarray(spec.params.get("probs", np.zeros(0)), dtype=float)
        if atoms.ndim != 3 or atoms.shape[1:] != (d, d):
            reasons.append(f"atoms must have shape (k, {d}, {d}), got {atoms.shape}")
        elif len(atoms) == 0:
            reasons.append("support is empty")
        elif len(probs) != len(atoms):
            reasons.append("atom and probability counts differ")
        else:
            if not np.all(probs > 0):
                reasons.append("probabilities must be strictly positive")
            if not abs(float(probs.sum()) - 1.0) <= 1e-12:
                reasons.append(f"probabilities sum to {probs.sum():.15g}, not 1")
            for k, a in enumerate(atoms):
                if not np.all(np.isfinite(a)) or np.linalg.cond(a) > COND_CAP:
                    reasons.append(f"support matrix {k} is singular or ill-conditioned")
        if spec.kind == "perturbed":
            eps = spec.params.get("magnitude")
            if eps is None or not 0 < float(eps) < 1:
                reasons.append("perturbation magnitude must lie in (0, 1)")
    elif spec.kind == "rotation_invariant":
        stretch = np.asarray(spec.params.get("stretch", np.eye(d)), dtype=float)
        if stretch.shape != (d, d):
            reasons.append(f"stretch must be {d}x{d}, got {stretch.shape}")
        elif not np.all(np.isfinite(stretch)) or np.linalg.cond(stretch) > COND_CAP:
            reasons.append("stretch matrix is singular or ill-conditioned")
    elif spec.kind == "diagonal":
        means = np.asarray(spec.params.get("log_means", ()), dtype=float)
        sds = np.asarray(spec.params.get("log_sds", ()), dtype=float)
        if means.shape != (d,) or sds.shape != (d,):
            reasons.append("log_means and log_sds must each have one entry per dimension")
        elif not (np.all(np.isfinite(means)) and np.all(np.isfinite(sds))):
            reasons.append("log_means and log_sds must be finite")
        elif np.any(sds < 0):
            reasons.append("log_sds must be nonnegative")
    if reasons:
        raise InvalidSpec(reasons)


def validate(spec):
    """Check the spec and estimate the log singular value moments.

    Raises InvalidSpec as ``check_spec`` does.  For parametric kinds the
    moments E|log sigma_i| are Monte Carlo estimates over MOMENT_DRAWS
    draws (finite support is summed exactly, stderr 0).
    """
    check_spec(spec)
    d = spec.dim
    if spec.kind == "finite_support":
        probs = spec.params["probs"]
        logs = np.abs(np.log(np.linalg.svd(spec.params["atoms"], compute_uv=False)))
        moments = probs @ logs
        stderr = np.zeros(d)
    else:
        sampler = SeededSampler(MOMENT_SEED, (0xA11D,))
        batch = sample_batch(spec, sampler, MOMENT_DRAWS)
        logs = np.abs(np.log(np.linalg.svd(batch, compute_uv=False)))
        moments = logs.mean(axis=0)
        stderr = logs.std(axis=0, ddof=1) / np.sqrt(MOMENT_DRAWS)
    return ValidationReport(name=spec.name, dim=d, kind=spec.kind,
                            log_sv_moments=moments, moment_stderr=stderr)


@dataclass(frozen=True, eq=False)
class ValidationReport:
    name: str
    dim: int
    kind: str
    log_sv_moments: np.ndarray  # E|log sigma_i|, i = 1..d
    moment_stderr: np.ndarray

    def lines(self):
        out = [f"ensemble {self.name}: kind={self.kind} dim={self.dim} valid"]
        for i, (m, s) in enumerate(zip(self.log_sv_moments, self.moment_stderr), start=1):
            out.append(f"  E|log sigma_{i}| = {m:.6f} (stderr {s:.2e})")
        return out


def _haar_orthogonal(rng, d, n):
    q, r = np.linalg.qr(rng.standard_normal((n, d, d)))
    signs = np.sign(np.einsum("...ii->...i", r))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def atom_indices(spec, sampler, n):
    """Draw n atom indices of a finite-support or perturbed spec by probs.

    ``spec.params["atoms"][atom_indices(spec, sampler, n)]`` is what
    ``sample_batch(spec, sampler, n)`` returns for finite support, and the
    two leave the stream at the same place.  The draw is that of
    ``rng.choice(K, size=n, p=probs)``, byte for byte and with the same
    stream use: one uniform u in [0, 1) per index, read as the number of
    entries of the normalized cdf at or below u (the last entry is 1, so
    never).  That number is summed from K - 1 comparisons rather than found
    by choice's binary search, whose branches on random u cost more than
    the K - 1 passes at the benchmark ensembles' 2 and 4 atoms; the cost
    grows with K.  Probabilities that are negative, NaN or do not sum to 1
    within choice's tolerance raise ValueError, as choice does.
    """
    probs = spec.params["probs"]
    if not (np.all(probs >= 0) and abs(math.fsum(probs) - 1.0) <= PROB_TOL):
        raise ValueError(f"atom probabilities {probs} are not a distribution")
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    u = sampler.rng.random(n)
    idx = np.zeros(n, dtype=np.int64)
    for c in cdf[:-1]:
        idx += u >= c
    return idx


def sample_batch(spec, sampler, n):
    """Draw n matrices as an (n, d, d) array.

    Consumes the sampler's stream once per call in a fixed pattern, so a
    given (seed, stream, call sequence) always yields the same bytes.
    """
    rng = sampler.rng
    d = spec.dim
    if spec.kind == "finite_support":
        return spec.params["atoms"][atom_indices(spec, sampler, n)]
    if spec.kind == "rotation_invariant":
        return _haar_orthogonal(rng, d, n) @ spec.params["stretch"]
    if spec.kind == "diagonal":
        g = rng.normal(spec.params["log_means"], spec.params["log_sds"], size=(n, d))
        out = np.zeros((n, d, d))
        step = np.arange(d)
        out[:, step, step] = np.exp(g)
        return out
    if spec.kind == "perturbed":
        base = spec.params["atoms"][atom_indices(spec, sampler, n)]
        eps = float(spec.params["magnitude"])
        g = rng.standard_normal((n, d, d))
        skew = (g - np.swapaxes(g, 1, 2)) / np.sqrt(2.0)
        skew /= np.linalg.norm(skew, axis=(1, 2), keepdims=True)
        rots = np.stack([orthonormalize(np.eye(d) + eps * k) for k in skew])
        return rots @ base
    raise InvalidSpec([f"unknown ensemble kind {spec.kind!r}"])


def mean_log_abs_det(spec):
    """E log|det A|, exact for finite support, Monte Carlo otherwise."""
    if spec.kind == "finite_support":
        dets = np.abs(np.linalg.det(spec.params["atoms"]))
        return float(spec.params["probs"] @ np.log(dets)), 0.0
    batch = sample_batch(spec, SeededSampler(LOGDET_SEED, (0xDE7,)),
                         LOGDET_DRAWS)
    logs = np.log(np.abs(np.linalg.det(batch)))
    return float(logs.mean()), float(logs.std(ddof=1) / np.sqrt(LOGDET_DRAWS))


def _rotation2(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def _rotation3(angle, plane):
    r = np.eye(3)
    (a, b) = plane
    c, s = np.cos(angle), np.sin(angle)
    r[a, a] = c
    r[b, b] = c
    r[a, b] = -s
    r[b, a] = s
    return r


def rot2():
    """Haar rotations of the plane: isometric fiber action, zero entropy."""
    return EnsembleSpec(name="rot2", dim=2, kind="rotation_invariant",
                        params={"stretch": np.eye(2)})


# bern2 pairs one mild stretch with opposite rotations.  The rotations
# spread the stationary measure over the whole projective line (density
# between 0.307 and 0.324) while the stretch stays small: the interval
# estimator resolves masses down to about e^(-kappa n) and needs kappa * n
# within log(tail replicas / 30).  Measured gap 0.0216; the Ulam reference
# gives gap = kappa = 0.021385.  The chain does not mix in O(1) steps:
# 4 * 0.8 is close to pi, so either rotation nearly flips the 4 theta mode,
# and along one orbit cos(4 theta) has autocorrelation -0.91, -0.64, +0.42
# and -0.12 at lags 1, 5, 10 and 25 (transfer eigenvalue -0.917).  Samples
# meant to be independent come from independent replicas, not from one
# thinned orbit.
BERN2_LOG_STRETCH = 0.15
BERN2_ROT_ANGLE = 0.8


def bern2():
    d = np.diag([np.exp(BERN2_LOG_STRETCH), np.exp(-BERN2_LOG_STRETCH)])
    r = _rotation2(BERN2_ROT_ANGLE)
    return finite_support("bern2", [r @ d, r.T @ d], [0.5, 0.5])


# diag3eps applies one mild diagonal stretch behind sign-dithered rotations
# on the two adjacent coordinate planes, the same recipe as bern2 one
# dimension up.  The O(1) rotations keep every fiber conditional spread over
# its whole circle (dimension near one) so the two entropy estimators probe
# the same measure; both gaps (measured 0.035 and 0.029) keep kappa * n
# within the interval estimator's mass resolution at n = 100.
DIAG3_LOG_STRETCH = (0.20, 0.17)    # top and bottom log singular values
DIAG3_DITHER = (0.7, 0.8)           # rotation angles on the (0,1), (1,2) planes


def diag3eps():
    """d = 3 diagonal stretch behind independently sign-flipped rotations."""
    d = np.diag([np.exp(DIAG3_LOG_STRETCH[0]), 1.0,
                 np.exp(-DIAG3_LOG_STRETCH[1])])
    atoms = [_rotation3(s1 * DIAG3_DITHER[0], (0, 1))
             @ _rotation3(s2 * DIAG3_DITHER[1], (1, 2)) @ d
             for s1 in (1, -1) for s2 in (1, -1)]
    return finite_support("diag3eps", atoms, [0.25, 0.25, 0.25, 0.25])


BENCHMARKS = {"rot2": rot2, "bern2": bern2, "diag3eps": diag3eps}


def _row_text(values):
    return " ".join(repr(float(v)) for v in np.asarray(values, dtype=float))


def _matrix_text(m):
    return " ; ".join(_row_text(row) for row in np.asarray(m, dtype=float))


def to_text(spec):
    """Serialize a spec to the key/value text format (schema in harness).

    Floats are written with repr so from_text(to_text(s)) reproduces the
    parameter arrays bit for bit.
    """
    lines = [
        f"flagdim ensemble schema {SPEC_SCHEMA}",
        f"name = {spec.name}",
        f"kind = {spec.kind}",
        f"dim = {spec.dim}",
    ]
    p = spec.params
    if spec.kind in ("finite_support", "perturbed"):
        lines.append(f"probs = {_row_text(p['probs'])}")
        lines.extend(f"atom = {_matrix_text(a)}" for a in p["atoms"])
        if spec.kind == "perturbed":
            lines.append(f"magnitude = {float(p['magnitude'])!r}")
    elif spec.kind == "rotation_invariant":
        lines.append(f"stretch = {_matrix_text(p['stretch'])}")
    elif spec.kind == "diagonal":
        lines.append(f"log_means = {_row_text(p['log_means'])}")
        lines.append(f"log_sds = {_row_text(p['log_sds'])}")
    return "\n".join(lines) + "\n"


def _parse_row(text, what):
    try:
        return np.array([float(tok) for tok in text.split()])
    except ValueError:
        raise InvalidSpec([f"{what} must be whitespace separated floats, got {text!r}"])


def _parse_matrix(text, what):
    rows = [_parse_row(part, what) for part in text.split(";")]
    if len({len(r) for r in rows}) > 1:
        raise InvalidSpec([f"{what} rows have unequal lengths"])
    return np.array(rows)


def from_text(text):
    """Parse the key/value text format back into an EnsembleSpec."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines or not lines[0].startswith("flagdim ensemble schema"):
        raise InvalidSpec(["missing 'flagdim ensemble schema' header line"])
    try:
        schema = int(lines[0].rsplit(None, 1)[-1])
    except ValueError:
        raise InvalidSpec([f"unreadable schema number in {lines[0]!r}"])
    if schema != SPEC_SCHEMA:
        raise InvalidSpec([f"unsupported ensemble schema {schema}, expected {SPEC_SCHEMA}"])
    fields = {}
    atom_rows = []
    for ln in lines[1:]:
        key, sep, value = ln.partition("=")
        if not sep:
            raise InvalidSpec([f"expected 'key = value', got {ln!r}"])
        key, value = key.strip(), value.strip()
        if key == "atom":
            atom_rows.append(value)
        elif key in fields:
            raise InvalidSpec([f"duplicate key {key!r}"])
        else:
            fields[key] = value
    for required in ("name", "kind", "dim"):
        if required not in fields:
            raise InvalidSpec([f"missing key {required!r}"])
    kind = fields["kind"]
    if kind not in KINDS:
        raise InvalidSpec([f"unknown ensemble kind {kind!r}"])
    try:
        dim = int(fields["dim"])
    except ValueError:
        raise InvalidSpec([f"dim must be an integer, got {fields['dim']!r}"])
    params = {}
    if kind in ("finite_support", "perturbed"):
        if "probs" not in fields:
            raise InvalidSpec(["missing key 'probs'"])
        if not atom_rows:
            raise InvalidSpec(["finite support needs at least one 'atom =' line"])
        params["probs"] = _parse_row(fields["probs"], "probs")
        params["atoms"] = np.array([_parse_matrix(a, "atom") for a in atom_rows])
        if kind == "perturbed":
            if "magnitude" not in fields:
                raise InvalidSpec(["missing key 'magnitude'"])
            params["magnitude"] = float(fields["magnitude"])
    elif kind == "rotation_invariant":
        if "stretch" not in fields:
            raise InvalidSpec(["missing key 'stretch'"])
        params["stretch"] = _parse_matrix(fields["stretch"], "stretch")
    elif kind == "diagonal":
        for key in ("log_means", "log_sds"):
            if key not in fields:
                raise InvalidSpec([f"missing key {key!r}"])
            params[key] = _parse_row(fields[key], key)
    return EnsembleSpec(name=fields["name"], dim=dim, kind=kind, params=params)
