"""Matrix ensembles: description, validation, and reproducible sampling.

An ensemble is the distribution of the i.i.d. matrices driving the flag
dynamics.  Two kinds are supported:

- ``finite_support``: a list of matrices with probabilities.  Every moment
  hypothesis holds automatically, so this is the benchmark family.
- ``rotation_invariant``: Haar orthogonal matrices times a fixed stretch.
  With the identity stretch the fiber action preserves arc length, the
  entropy vanishes, and the ensemble serves as the zero control.

A Haar matrix K times the stretch S has the singular values and the
|det| of S, so every moment of either kind is a weighted sum over a
finite list of matrices (``_support``) and is read in closed form.

Sampling is counter-based: a (seed, stream) pair fully determines every
draw.  Finite support draws atom indices by thresholds, one raw word an
index (``_atom_counts``); the spectrum's measurement and the d = 2
stationary sample, on 2^b equiprobable atoms, read 64 / b packed indices
a word (``_packed_atom_counts``).
Each job of a run draws on streams of its own, so jobs can run in any
order or thread count with identical output; the replicas of one stack
share the stack's stream (see ``dynamics``).
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec
from .flagcore import COND_CAP

KINDS = ("finite_support", "rotation_invariant")
SPEC_SCHEMA = 1
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
    if spec.kind == "finite_support":
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
    else:
        stretch = np.asarray(spec.params.get("stretch", np.eye(d)), dtype=float)
        if stretch.shape != (d, d):
            reasons.append(f"stretch must be {d}x{d}, got {stretch.shape}")
        elif not np.all(np.isfinite(stretch)) or np.linalg.cond(stretch) > COND_CAP:
            reasons.append("stretch matrix is singular or ill-conditioned")
    if reasons:
        raise InvalidSpec(reasons)


def _support(spec):
    """Matrices and weights whose weighted sums are the spec's moments.

    The atoms and their probabilities for finite support; the stretch with
    weight 1 for Haar times a stretch, which has the stretch's singular
    values and |det| in every draw.
    """
    if spec.kind == "finite_support":
        return spec.params["atoms"], spec.params["probs"]
    return spec.params["stretch"][None], np.ones(1)


def validate(spec):
    """Check the spec and sum the log singular value moments exactly.

    Raises InvalidSpec as ``check_spec`` does.  The moments E|log sigma_i|
    are weighted sums over ``_support``, exact up to rounding.
    """
    check_spec(spec)
    mats, weights = _support(spec)
    logs = np.abs(np.log(np.linalg.svd(mats, compute_uv=False)))
    return ValidationReport(name=spec.name, dim=spec.dim, kind=spec.kind,
                            log_sv_moments=weights @ logs)


@dataclass(frozen=True, eq=False)
class ValidationReport:
    name: str
    dim: int
    kind: str
    log_sv_moments: np.ndarray  # E|log sigma_i|, i = 1..d

    def lines(self):
        out = [f"ensemble {self.name}: kind={self.kind} dim={self.dim} valid"]
        for i, m in enumerate(self.log_sv_moments, start=1):
            out.append(f"  E|log sigma_{i}| = {m:.6f}")
        return out


def _haar_orthogonal(rng, d, n):
    q, r = np.linalg.qr(rng.standard_normal((n, d, d)))
    signs = np.sign(np.einsum("...ii->...i", r))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def _atom_counts(spec, sampler, n):
    """Draw n atom indices of a finite-support spec by probs.

    ``spec.params["atoms"][_atom_counts(spec, sampler, n)]`` is what
    ``sample_batch(spec, sampler, n)`` returns for finite support, and the
    two leave the stream at the same place.  The draw is that of
    ``rng.choice(K, size=n, p=probs)``, value for value and with the same
    stream use: one 64-bit word of the bit generator per index, the word
    from which ``Generator.random`` makes choice's uniform u, read as the
    number of entries of the normalized cdf at or below u.  No uniform is
    formed: each cdf entry c below 1 becomes the integer threshold
    ceil(c 2^53) << 11, which a word reaches exactly when its u reaches c,
    and an entry equal to 1 (the last, and any reached earlier) is never
    at or below u, so it adds no comparison.  The count is summed from
    these comparisons rather than found by choice's binary search, whose
    branches on random u cost more than the passes at the benchmark
    ensembles' 2 and 4 atoms; the cost grows with K.  The sum runs in the
    smallest unsigned type that holds K - 1, one byte up to 256 atoms, so
    a word fold reads the counts as they are and forms its word codes in
    the same type (``dynamics._word_codes``).  A narrow stack draws a
    block at a time, so the call's fixed cost counts: the thresholds are
    formed from the K probabilities in Python floats, the very sums and
    quotients of ``np.cumsum`` and a division, and the first comparison
    writes the counts, each later one adding to them.  Probabilities that
    are negative, NaN or do not sum to 1 within choice's tolerance raise
    ValueError, as choice does.

    Every stack of the package draws its atoms this way, whatever their
    weights, but for the spectrum's measurement and the d = 2 stationary
    sample (``dynamics.stationary_lines``) on 2^b equiprobable atoms,
    which draw packed indices of the same law (``_packed_atom_counts``).
    Either draw spends a fixed number of words per index or per step, so
    no result depends on how a stack's steps are cut into calls.
    """
    probs = spec.params["probs"].tolist()
    if not (all(p >= 0 for p in probs)
            and abs(math.fsum(probs) - 1.0) <= PROB_TOL):
        raise ValueError(f"atom probabilities {probs} are not a distribution")
    cdf = list(itertools.accumulate(probs))
    # choice's uniform from the word w is u = (w >> 11) 2^-53, and u >= c
    # exactly when w >= ceil(c 2^53) << 11; no u reaches an entry c = 1
    limits = [math.ceil(c / cdf[-1] * 2.0 ** 53) for c in cdf[:-1]]
    limits = [np.uint64(c << 11) for c in limits if c < 2 ** 53]
    words = sampler.rng.bit_generator.random_raw(n)
    dtype = np.min_scalar_type(len(cdf) - 1)
    if not limits:
        return np.zeros(n, dtype)
    count = np.greater_equal(words, limits[0], out=np.empty(n, dtype))
    for limit in limits[1:]:
        count += words >= limit
    return count


# b -> the b-bit fields of every byte, lowest bits first, one byte per
# field, as the 256 little-endian words of 8 / b bytes that a byte indexes
_FIELD_TABLES = {b: ((np.arange(256)[:, None] >> (b * np.arange(8 // b)))
                     & (2 ** b - 1)).astype(np.uint8).view(f"<u{8 // b}")[:, 0]
                 for b in (1, 2, 4, 8)}


def _packed_bits(spec):
    """Bits b per atom index of a packed draw, or None when the spec has
    none: finite support of K = 2^b atoms, b in 1, 2, 4 or 8, each of
    probability exactly 1/K (``_packed_atom_counts``)."""
    if spec.kind != "finite_support":
        return None
    probs = spec.params["probs"]
    b = len(probs).bit_length() - 1
    if (b in _FIELD_TABLES and len(probs) == 2 ** b
            and np.all(probs == 2.0 ** -b)):
        return b
    return None


def _packed_atom_counts(sampler, steps, n, b):
    """The next ``steps`` steps of atom indices of an n-stack, (steps, n),
    for a spec of 2^b equiprobable atoms, b its ``_packed_bits``.

    Each step spends ceil(n b / 64) raw 64-bit words of the bit generator,
    in step order, and replica r reads the b-bit field r mod (64 / b) of
    the step's word r div (64 / b), lowest bits first.  The words are read
    as little-endian bytes, so the indices do not depend on the host, and
    a byte's fields are looked up in one table (``_FIELD_TABLES``).  A
    step's words depend on nothing but the steps before it, so one call
    of T steps draws what T calls of one step draw and leaves the stream
    where they leave it.  The indices are uniform on the K atoms, the law
    of ``_atom_counts``, which spends a word per index, but a different
    draw of it.  Returns the counts in ``_atom_counts``'s dtype, one byte.
    """
    words = -(-n * b // 64)
    raw = sampler.rng.bit_generator.random_raw(steps * words)
    octets = raw.astype("<u8", copy=False).view(np.uint8)
    fields = _FIELD_TABLES[b].take(octets).view(np.uint8)
    return fields.reshape(steps, words * 64 // b)[:, :n]


def sample_batch(spec, sampler, n):
    """Draw n matrices as an (n, d, d) array.

    Consumes the sampler's stream once per call in a fixed pattern, so a
    given (seed, stream, call sequence) always yields the same bytes.
    Both kinds consume their stream in draw order, so one call of T n
    draws returns those of T calls of n draws in turn, byte for byte.
    Finite support draws by ``_atom_counts``, one word per matrix,
    whatever its weights: only the spectrum's measurement and the d = 2
    stationary sample draw packed indices (``_packed_atom_counts``), and
    they draw no matrices.
    """
    if spec.kind == "finite_support":
        return np.take(spec.params["atoms"], _atom_counts(spec, sampler, n),
                       axis=0)
    return _haar_orthogonal(sampler.rng, spec.dim, n) @ spec.params["stretch"]


def mean_log_abs_det(spec):
    """E log|det A|, summed exactly over ``_support``."""
    mats, weights = _support(spec)
    return float(weights @ np.log(np.abs(np.linalg.det(mats))))


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


def _haar_times(name, log_stretch):
    """Haar orthogonal matrices times the stretch diag(e^log_stretch)."""
    return EnsembleSpec(name=name, dim=len(log_stretch),
                        kind="rotation_invariant",
                        params={"stretch": np.diag(np.exp(log_stretch))})


def rot2():
    """Haar rotations of the plane: isometric fiber action, zero entropy."""
    return _haar_times("rot2", (0.0, 0.0))


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


# iso2 and iso3: nu is rotation invariant, so every fiber conditional is
# uniform, kappa_i = gap_i and every fiber has dimension 1.
def iso2():
    """Haar(O(2)) diag(e^0.15, e^-0.15): chi_1 = log cosh 0.15, so
    kappa = gap = 2 log cosh 0.15 = 0.022416."""
    return _haar_times("iso2", (0.15, -0.15))


def iso3():
    """Haar(O(3)) diag(e^0.20, 1, e^-0.17): by quadrature chi = (0.023711,
    0.009884, -0.003595), so kappa = gap = (0.013828, 0.013479)."""
    return _haar_times("iso3", (0.20, 0.0, -0.17))


BENCHMARKS = {"rot2": rot2, "bern2": bern2, "diag3eps": diag3eps,
              "iso2": iso2, "iso3": iso3}


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
    if spec.kind == "finite_support":
        lines.append(f"probs = {_row_text(p['probs'])}")
        lines.extend(f"atom = {_matrix_text(a)}" for a in p["atoms"])
    else:
        lines.append(f"stretch = {_matrix_text(p['stretch'])}")
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
    if kind == "finite_support":
        if "probs" not in fields:
            raise InvalidSpec(["missing key 'probs'"])
        if not atom_rows:
            raise InvalidSpec(["finite support needs at least one 'atom =' line"])
        params["probs"] = _parse_row(fields["probs"], "probs")
        params["atoms"] = np.array([_parse_matrix(a, "atom") for a in atom_rows])
    else:
        if "stretch" not in fields:
            raise InvalidSpec(["missing key 'stretch'"])
        params["stretch"] = _parse_matrix(fields["stretch"], "stretch")
    return EnsembleSpec(name=fields["name"], dim=dim, kind=kind, params=params)
