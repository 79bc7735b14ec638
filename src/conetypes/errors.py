"""Exception hierarchy for the cone-type toolkit."""


class ConeTypesError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameter(ConeTypesError):
    """A triangle-group exponent is smaller than 2."""


class NonHyperbolic(ConeTypesError):
    """1/l + 1/m + 1/n >= 1: spherical or Euclidean triple."""


class IdentificationAmbiguity(ConeTypesError):
    """Exact identification cannot decide: a ball's rank-2 cosets do not pair
    its candidates (CayleyBall.grow's pairing guard)."""


class MemoryCap(ConeTypesError):
    """Ball construction would exceed the vertex budget, coxeter.MAX_VERTICES."""


class VerificationFailed(ConeTypesError):
    """The automaton disagrees with a Cayley ball at a vertex or on the sphere
    beyond it, or has no transitions to type the ball's vertices."""


class MultipleTerminalSCCs(ConeTypesError):
    """The type digraph has more than one terminal strongly connected component."""


class NotPrimitive(ConeTypesError):
    """No power of the reduced matrix up to K^2 is entrywise positive."""


class NotConverged(ConeTypesError):
    """A numeric result failed its check: the fold search, F(R_F) < 1, or
    lower.perron's one check of an eigenpair, for nu or for lambda: a
    positive vector whose every entry has relative residual below 1e-12."""


class ZeroPredecessor(ConeTypesError):
    """A reduced type has r_i = 0, so the sphere recursion is undefined."""


class HorizonExceedsBall(ConeTypesError):
    """Requested walk horizon exceeds twice the ball radius, its exact range."""


class SchemaError(ConeTypesError):
    """An imported document does not conform to the expected schema."""
