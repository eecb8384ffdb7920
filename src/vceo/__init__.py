"""Sum rate, converse bound, and optimality certificates for the Gaussian
vacationing-CEO source-coding problem (two encoders observing a remote
source, two descriptions each, two individual receivers plus a central one).

All information quantities are in nats.  The CLI lives in :mod:`vceo.cli`.
"""

from . import bound, equivalence, errors, gaussmodel, mc, scheme
from .bound import *  # noqa: F403
from .equivalence import *  # noqa: F403
from .errors import *  # noqa: F403
from .gaussmodel import *  # noqa: F403
from .mc import *  # noqa: F403
from .scheme import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (bound, equivalence, errors, gaussmodel, mc, scheme)
    for name in module.__all__
]
