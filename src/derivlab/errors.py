"""Exception types shared across the package."""


class DerivlabError(Exception):
    """Base class for all derivlab errors."""


class NotHermitian(DerivlabError):
    """Input matrix fails the Hermitian symmetry check."""


class NoConvergence(DerivlabError):
    """Iterative eigensolver exceeded its iteration cap."""


class DimensionOverflow(DerivlabError):
    """Requested object exceeds the configured memory budget."""


class ShapeMismatch(DerivlabError):
    """Operands have incompatible shapes."""


class AmbientMismatch(DerivlabError):
    """Operator subspaces live in different ambient matrix spaces."""


class AmbiguousClustering(DerivlabError):
    """An eigenvalue gap sits exactly at the clustering threshold."""


class ZeroT(DerivlabError):
    """Difference quotients require nonzero time steps."""


class NotDensity(DerivlabError):
    """Matrix is not a density matrix (Hermitian, PSD, unit trace)."""


class NotFaithful(DerivlabError):
    """State is not faithful; the quotient construction is unsupported."""


class NotEquilibrium(DerivlabError):
    """State and derivation act on different M_n, so the equilibrium
    condition omega o delta = 0 cannot be posed."""


class GridTooCoarse(DerivlabError):
    """Grid cannot resolve any of the default test vectors."""


class BadMultiplicities(DerivlabError):
    """Prescribed eigenvalue multiplicities do not sum to the dimension."""


class ConfigInvalid(DerivlabError):
    """Experiment configuration violates its invariants."""
