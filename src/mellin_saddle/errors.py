"""Exception types shared across the library.

The CLI maps BuildError/SpecError to exit code 2 and the numerical
failures to exit code 3, so keep the split between "your input is bad"
and "the computation broke" intact when adding new errors.
"""


class MellinSaddleError(Exception):
    """Base class for all library errors."""


class SpecError(MellinSaddleError, ValueError):
    """A function spec / CLI argument could not be interpreted."""


class BuildError(SpecError):
    """A weight-function build was rejected (bad parameters or failed audit)."""


class NumericalError(MellinSaddleError):
    """Base class for runtime numerical failures."""


class PowerOverflowError(NumericalError):
    """z**s left the double range; carries the real exponent for rescaling."""

    def __init__(self, re_exponent: float):
        self.re_exponent = float(re_exponent)
        super().__init__(
            f"power overflows double range (real exponent {self.re_exponent:.6g}); "
            "rescale by exp(-re_exponent)"
        )


class NoSaddleError(NumericalError):
    """The saddle equation has no root in range on the requested ray/sheet."""


class QuadratureError(NumericalError):
    """A quadrature did not converge within the node budget."""


class RegionError(NumericalError):
    """An asymptotic evaluator was called outside its region of validity."""
