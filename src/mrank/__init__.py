"""Unfolding ranks and convex recovery for even-order complex tensors.

The package groups the d row axes and d column axes of a 2d-order tensor
into square matricizations (one per balanced pairing of the axes), measures
tensor complexity by the max/min rank over those unfoldings, certifies
bounds on the rank-one term count, and recovers low-rank tensors from
partial or corrupted data on the unfoldings: by convex optimization, except
that square-unfolding completion (complete_m) returns the first rank-r fit
its samples validate rather than the nuclear-norm minimizer.
"""

from . import fileio, linalg, ranks, solvers, synth, tensor
from .fileio import *
from .linalg import *
from .ranks import *
from .solvers import *
from .synth import *
from .tensor import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [*fileio.__all__, *linalg.__all__, *ranks.__all__, *solvers.__all__,
           *synth.__all__, *tensor.__all__]
