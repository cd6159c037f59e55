"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """An argument violates a documented precondition (shape, range, flag)."""


class InvalidMarginalError(InvalidInputError):
    """Marginal data is inconsistent: F < max(|A|, |C|) beyond tolerance."""


class DegenerateInputError(ValueError):
    """A parametrization collapsed under a required constraint projection."""
