"""Linear finite-difference operators with constant coefficients acting on
polynomials, and the machinery to track where their zeros go: operator
classification, the de Bruijn family T_{theta,h}, Walsh convolution, mesh and
root-interval bounds, large-h root asymptotics, and a seeded property suite.

The package exports what each module lists in its `__all__` (every exception
class of `errors`, which has none), so that list is the one declaration of a
module's public names.
"""

from .errors import *
from .poly import *
from .rootfind import *
from .operators import *
from .debruijn import *
from .walsh import *
from .asymptotics import *
from .harness import *

__version__ = "0.1.0"
