"""treemajor: the majorization order on degree sequences of trees.

Exact comparison of degree sequences under prefix-sum dominance, Lorenz
curves as rational polylines, unit-transfer planning between comparable
sequences, degree-constrained branch moves on explicit trees, constructive
realization of feasible sequences, enumeration of all tree classes at small
n, and exhaustive verification of the order/reachability theory with
machine-checkable certificates.
"""

# Each module's __all__ is the one list of its public names.
from .errors import *
from .sequences import *
from .transfers import *
from .trees import *
from .realize import *
from .enumeration import *
from .verify import *

__version__ = "0.1.0"
