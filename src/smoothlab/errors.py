"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: config/input problems -> 1,
out-of-regime parameters -> 2, combinatorial size limits -> 3.
"""


class SmoothlabError(Exception):
    """Base class for all package errors."""


class InvalidInputError(SmoothlabError, ValueError):
    """Malformed or non-finite input data."""


class ConfigError(SmoothlabError):
    """Invalid experiment configuration."""


class OutOfRegimeError(SmoothlabError):
    """Parameters violate the hypothesis regime of the bound being tested."""


class SizeLimitError(SmoothlabError):
    """A brute-force enumeration would exceed the desk-scale budget."""


class DegeneratePlaneError(InvalidInputError):
    """Projection plane spanned by (nearly) parallel vectors."""


class UnboundedShadowError(SmoothlabError):
    """The polytope is unbounded in the projection plane directions."""


class InvalidStartError(InvalidInputError):
    """Pivot walk started from a non-vertex or a vertex not optimal for t."""


class StreamMismatchError(SmoothlabError):
    """Bulk seed-stream derivation disagrees with numpy's own seeding."""


class LapackMismatchError(SmoothlabError):
    """numpy's stacked least-squares solver is missing or disagrees with np.linalg.lstsq."""


class InfeasibleMarginError(SmoothlabError):
    """Margin is nonpositive, so the iteration bound is undefined."""
