"""Exception hierarchy shared by all modules."""


class WittenZetaError(Exception):
    """Base class for all library errors."""


class UnsupportedFamily(WittenZetaError):
    """Root system family/rank pair is not valid."""


class UnknownSpace(WittenZetaError):
    """Space or group id does not parse or violates table constraints."""


class UnsupportedSpace(WittenZetaError):
    """Space is catalogued but cannot be evaluated (missing multiplicities)."""


class DomainError(WittenZetaError):
    """Argument outside the mathematical domain of the operation."""


class InconsistentMultiplicities(WittenZetaError):
    """Multiplicity pair does not match any supported case."""


class NotRankOne(WittenZetaError):
    """Operation requires a rank-one symmetric space."""


class DivergenceError(DomainError):
    """Series diverges for the requested parameters."""


class NotConverged(WittenZetaError):
    """Series did not reach the requested tolerance within the term budget."""


class DegenerateConfiguration(WittenZetaError):
    """Two shifted poles coincide; the partial-fraction formula degenerates."""
