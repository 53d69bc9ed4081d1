"""Exception hierarchy shared by all modules."""


def shown(value, form=str) -> str:
    """``form(value)`` for an error message, or the bit length of an integer
    too long for ``str`` (more than ``sys.get_int_max_str_digits()`` digits)."""
    try:
        return form(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


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
