"""Stationary measures of i.i.d. random matrix products on flag manifolds.

The package estimates three linked quantities for a matrix ensemble
acting on complete flags of R^d:

- the Lyapunov spectrum and its gaps (``dynamics``),
- the entropy of the conditional fiber measures over partial flags, by a
  density route and an interval route that must agree (``entropy``),
- the local dimension of those conditional measures, checked against
  entropy over gap (``measures`` + ``entropy`` reports).

``flagcore`` holds the flag/fiber geometry, ``circle`` the angle
arithmetic on a fiber, ``ensemble`` the matrix distributions and seeded
sampling, and ``harness``/``cli`` the reproducible experiment runner,
whose one entry, ``run``, runs each command as a selection of verify's
legs.
"""

from . import circle
from .dynamics import (Arc, OrbitTrace, SpectrumEstimate, forward_orbit,
                       interval_decay_curve, lyapunov_spectrum,
                       pull_forward, stable_coordinates,
                       stationary_interval, stationary_orbit)
from .ensemble import (BENCHMARKS, EnsembleSpec, SeededSampler, bern2,
                       diag3eps, finite_support, from_text, rot2,
                       sample_batch, to_text, validate)
from .entropy import (KappaEstimate, conditional_fiber_sample,
                      dimension_formula_report, furstenberg_entropy_d2,
                      kappa_density_estimator, kappa_interval_estimator)
from .errors import FlagdimError
from .flagcore import (CircleMap, Flag, LinearMap, PartialFlag, act_flag,
                       fiber_embed, flag_jacobian, induced_circle_map,
                       partial_flag)
from .harness import (ExperimentConfig, ResultBundle, emit_outputs,
                      load_config, run, run_spectrum, run_verify)
from .measures import (EmpiricalCircleMeasure, ball_mass, local_dimension,
                       wasserstein_circle)
from .version import __version__

__all__ = [name for name in dir() if not name.startswith("_")]
