"""Exception hierarchy with stable error codes for the CLI."""


class MilnorHodgeError(Exception):
    """Base class; ``code`` is the stable machine-readable identifier."""

    code = "error"


class ParseError(MilnorHodgeError):
    code = "parse_error"


class ZeroForm(ParseError):
    code = "zero_form"


class DuplicateLine(ParseError):
    code = "duplicate_line"


class DecodeError(MilnorHodgeError):
    code = "decode_error"


class InvalidSing(MilnorHodgeError):
    code = "invalid_singularity"


class DegreeTooSmall(MilnorHodgeError):
    code = "degree_too_small"


class TooLarge(MilnorHodgeError):
    code = "too_large"


class NegativeMultiplicity(MilnorHodgeError):
    code = "negative_multiplicity"


class SumRuleViolation(MilnorHodgeError):
    code = "sum_rule_violation"


class NotEnoughPrimes(MilnorHodgeError):
    code = "not_enough_primes"


class BadPrime(MilnorHodgeError):
    code = "bad_prime"


class NotPolynomialCount(MilnorHodgeError):
    code = "not_polynomial_count"
