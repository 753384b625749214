"""finpop: design-based finite-population sampling, estimation and benchmarking.

Submodules:

* ``population``  -- data model, synthetic linear-model generators, CSV i/o
* ``designs``     -- SRSWOR, Lahiri-Midzuno-Sen, Rao-Sampford, Rao-Hartley-
  Cochran: drawing, inclusion probabilities, exact enumeration
* ``estimators``  -- HT, RHC, Hajek, ratio, product, GREG and PEML mean
  estimators, with the calibrated-weight solver
* ``functionals`` -- mean, variance, correlation and regression coefficient
  as plug-in functionals
* ``asymptotics`` -- large-sample MSE formulas and equivalence classes
* ``inference``   -- the plug-in variance estimate, confidence intervals,
  jackknife bias correction
* ``montecarlo``  -- seeded replicate runner (MSEs, relative efficiencies,
  interval statistics)
* ``oracle``      -- exact design expectations on tiny populations
* ``errors``      -- the exception hierarchy

Each submodule's ``__all__`` is its public part, and the package's ``__all__``
is their concatenation.  Other names stay importable by module path.
"""

from . import asymptotics, designs, errors, estimators, functionals
from . import inference, montecarlo, oracle, population
from .asymptotics import *  # noqa: F403
from .designs import *  # noqa: F403
from .errors import *  # noqa: F403
from .estimators import *  # noqa: F403
from .functionals import *  # noqa: F403
from .inference import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .oracle import *  # noqa: F403
from .population import *  # noqa: F403

__version__ = "0.1.0"

_MODULES = (
    asymptotics, designs, errors, estimators, functionals,
    inference, montecarlo, oracle, population,
)
__all__ = [name for module in _MODULES for name in module.__all__]
