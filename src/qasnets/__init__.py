"""Geometric transformers and hypertransformers on quantizable
approximately-simplicial metric spaces.

The package is organized as:

* :mod:`qasnets.measures`     -- discrete, path, and Gaussian measures
* :mod:`qasnets.metrics`      -- exact (adapted) Wasserstein, TV, SPD geometry
* :mod:`qasnets.spaces`       -- the six output-space variants and their
  mixing/quantization/attention machinery
* :mod:`qasnets.networks`     -- feedforward nets with trainable activations,
  the flat parameter codec, training, and constructive memorization
* :mod:`qasnets.transformer`  -- static models, fit procedures, complexity
  calculators
* :mod:`qasnets.dynamics`     -- time grids, path classes, causal maps,
  compression rates, path simulation
* :mod:`qasnets.hyper`        -- the dynamic model (parameter-schedule
  recursion) and its fit pipeline
* :mod:`qasnets.cli`          -- reproducible experiment harness
"""

__version__ = "0.1.0"

from .measures import DiscreteMeasure, GaussianMeasure, PathMeasure
from .metrics import (
    adapted_wasserstein_p,
    convergent_power_sum,
    gaussian_distance,
    project_cube,
    project_simplex,
    total_variation,
    wasserstein2_barycenter_1d,
    wasserstein_p,
)

__all__ = [
    "DiscreteMeasure",
    "GaussianMeasure",
    "PathMeasure",
    "adapted_wasserstein_p",
    "convergent_power_sum",
    "gaussian_distance",
    "project_cube",
    "project_simplex",
    "total_variation",
    "wasserstein2_barycenter_1d",
    "wasserstein_p",
    "__version__",
]
