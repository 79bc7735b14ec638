"""Exception hierarchy for the cone-type toolkit."""


class ConeTypesError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameter(ConeTypesError):
    """A triangle-group exponent is smaller than 2."""


class NonHyperbolic(ConeTypesError):
    """1/l + 1/m + 1/n >= 1: spherical or Euclidean triple."""


class IdentificationAmbiguity(ConeTypesError):
    """Vertex keys can no longer be trusted (fingerprint clash or coefficient guard exhausted)."""


class MemoryCap(ConeTypesError):
    """Ball construction would exceed the configured vertex budget."""


class NotStabilized(ConeTypesError):
    """No depth k with R - k >= max(l,m,n) + 1 yields two consecutive identical partitions."""


class NonDeterministic(ConeTypesError):
    """Two vertices of equal type disagree on successor-type multisets."""


class VerificationFailed(ConeTypesError):
    """No admissible twisted walk confirms two vertices of one certificate class."""


class MultipleTerminalSCCs(ConeTypesError):
    """The type digraph has more than one terminal strongly connected component."""


class NotPrimitive(ConeTypesError):
    """No power of the reduced matrix up to K^2 is entrywise positive."""


class InvalidRoot(ConeTypesError):
    """Chosen start type is outside the reduced set or has successors outside it."""


class NotConverged(ConeTypesError):
    """An iterative eigensolver failed to reach its residual target."""


class ZeroPredecessor(ConeTypesError):
    """A reduced type has r_i = 0, so the sphere recursion is undefined."""


class HorizonExceedsBall(ConeTypesError):
    """Requested walk horizon exceeds twice the ball radius, its exact range."""


class SchemaError(ConeTypesError):
    """An imported document does not conform to the expected schema."""
