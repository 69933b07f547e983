"""Exception hierarchy shared across the package.

Errors are split by the caller's ability to react: ConfigError marks a
configuration mistake, to be fixed before the run, and NumericalFailure a
numerical procedure that failed on a valid configuration.  The messages are
the whole report; no error carries a payload.
"""


class HyplabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HyplabError):
    """Invalid or inconsistent configuration (bad keys, out-of-range values)."""


class RegimeError(HyplabError):
    """Requested evaluation point lies outside the validity regime of a bound."""


class FlowExitsGrid(HyplabError):
    """A transported function would need values beyond the radial grid."""


class NumericalFailure(HyplabError):
    """An iterative numerical procedure failed to converge."""
