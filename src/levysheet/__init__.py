"""Two-parameter Levy processes restricted to decreasing paths.

Submodules:

- `exponent`: Levy triplets, characteristic exponents, named jump laws.
- `paths`: decreasing-path forms and stationary-increment classification.
- `fdd`: closed-form finite-dimensional characteristic functions.
- `gauss`: the Brownian-sheet case; exact simulation, densities, crossings.
- `jumpsim`: batched draws of any triplet along a path; compound-Poisson
  sheets, cancelling-jump event paths, bridges.
- `stationary`: exponential-path stationary laws and OU-type discrimination.

Not imported by `import levysheet`; import them by name (scipy loads when a
statistic needs it):

- `verify`: Monte Carlo verification harness (empirical CFs, chi^2, KS).
- `suites`: the named verification suites behind `levysheet verify`.
"""

from . import exponent, fdd, gauss, jumpsim, paths, stationary
from .exponent import (
    LevyTriplet,
    brownian,
    cpp,
    cpp_from_atoms,
    eval_psi,
    is_deterministic,
    is_symmetric,
    pure_drift,
    symmetrize,
)
from .paths import (
    ExponentialPath,
    HorizontalPath,
    LinearPath,
    PathClass,
    PathTag,
    TabulatedPath,
    VerticalPath,
    VThenHPath,
    classify,
    equivalent,
)

__version__ = "0.1.0"
