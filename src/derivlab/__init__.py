"""derivlab: a finite-dimensional laboratory for commutator derivations.

The package realizes, on dense complex matrices, the operator-theoretic
machinery around the derivation x -> i(Dx - xD) of a Hermitian D: its
superoperator form, kernels and their stabilization under powers,
commutants and the spectral von Neumann algebra, the GNS construction
with an implementing operator for equilibrium states, and discretized
Heisenberg commutation pairs with their trace obstruction.

The root re-exports the names the demos import, and ``kron``; its
``commutant`` is the function, not the submodule.
"""

__version__ = "0.1.0"

from .commutant import (
    bicommutant,
    commutant,
)
from .derivation import (
    ad_superoperator,
    derivation_kernel,
)
from .gns import (
    analytic_norm_series,
    equilibrium_check,
    gns_construct,
    implementation_check,
    implementing_operator,
    state_from_density,
)
from .heisenberg import (
    hcr_residual,
    periodic_pair,
    schrodinger_pair,
    trace_obstruction,
)
from .numlin import kron, subspace_distance
from .spectral import (
    borel_calculus,
    projection_commutation_check,
    spectral_projection,
    spectral_resolution,
    unitary_group,
)
