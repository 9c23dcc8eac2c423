"""Exception taxonomy shared by all opmeans modules.

Every error raised by the library derives from :class:`OpmeansError`, so
callers (notably the CLI) can map failures to exit codes without matching
on message text.
"""


class OpmeansError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- matrices


class NotSquare(OpmeansError):
    pass


class NotSymmetric(OpmeansError):
    pass


class NotPositiveDefinite(OpmeansError):
    pass


class EigenFailure(OpmeansError):
    pass


class DomainError(OpmeansError):
    """A scalar function was evaluated outside its domain."""


class DimensionMismatch(OpmeansError):
    pass


class BadInterval(OpmeansError):
    pass


class BadSeed(OpmeansError):
    """A random seed that is not an integer in ``[0, 2**64)``."""


# ------------------------------------------------------ representing functions


class MissingParameter(OpmeansError):
    pass


class UnknownKind(OpmeansError):
    """JSON decoding met a kind/transform tag not in the catalog."""


class SigmaIsLeftTrivial(OpmeansError):
    """Deformation by the left trivial mean is undefined."""


# -------------------------------------------------------------------- solvers


class NoConvergence(OpmeansError):
    """Iteration cap reached.

    ``last_iterate`` (ndarray or float) and ``residual`` carry diagnostics
    for the caller; both may be None when not applicable.  ``members`` lists
    the failing members of a batched solve as ``{"member", "what", "bound",
    "residual"}`` dicts, by flattened index: ``bound`` is the member's
    Thompson error bound and ``residual`` the residual ``rho`` that decides
    its steps, both at the last iterate.
    """

    def __init__(self, message, last_iterate=None, residual=None, members=()):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.members = list(members)


class ArityMismatch(OpmeansError):
    pass


class AlphaZero(OpmeansError):
    pass


class InvalidWeights(OpmeansError):
    pass


class CertificationFailure(OpmeansError):
    """A computed mean escaped its independent enclosure: solver bug."""


class HypothesisFails(OpmeansError):
    """The premise of a conditional comparison does not hold for the input."""


# --------------------------------------------------------------------- checks


class BadR(OpmeansError):
    pass


class BadH(OpmeansError):
    pass


class BoundsViolated(OpmeansError):
    pass


class BadMode(OpmeansError):
    pass


class SandwichFails(OpmeansError):
    """Input mean is not between the weighted harmonic and arithmetic means."""


class ConfigError(OpmeansError):
    pass
