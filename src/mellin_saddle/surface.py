"""Points on the Riemann surface of log z, and shared numeric result types.

A surface point is stored as (log_r, psi) with an unbounded real argument
psi; no 2*pi reduction is ever applied, so sheets stay distinct.  All
powers z**s are taken through exp(s * (log_r + i*psi)), which is exact on
the surface and has no branch cut.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import PowerOverflowError, SpecError

# exp() overflows double just above this exponent
_EXP_OVERFLOW = 709.0


@dataclass(frozen=True)
class LogSurfacePoint:
    """z = exp(log_r) * e^{i psi} on the surface of log z."""

    log_r: float
    psi: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.log_r) and math.isfinite(self.psi)):
            raise SpecError(f"surface point must be finite, got {self}")

    @classmethod
    def from_complex(cls, z: complex) -> "LogSurfacePoint":
        """Principal-sheet point for a nonzero plane number."""
        z = complex(z)
        if z == 0:
            raise SpecError("z = 0 is not on the surface")
        return cls(math.log(abs(z)), math.atan2(z.imag, z.real))

    @property
    def log_z(self) -> complex:
        return complex(self.log_r, self.psi)

    def conj(self) -> "LogSurfacePoint":
        return LogSurfacePoint(self.log_r, -self.psi)

    def __str__(self):
        return f"(log_r={self.log_r:.6g}, psi={self.psi:.6g})"


def log_surface_pow(z: LogSurfacePoint, s) -> complex:
    """z**s on the surface: exp(s * (log_r + i*psi)), no branch cut.

    Raises PowerOverflowError with the real exponent when the result
    would overflow double, so callers can rescale.
    """
    expo = complex(s) * z.log_z
    if expo.real > _EXP_OVERFLOW:
        raise PowerOverflowError(expo.real)
    return complex(np.exp(expo))


@dataclass(frozen=True)
class Tolerances:
    """Shared numeric settings: rel_tol and the node budget max_nodes.

    rel_tol defaults to 1e-8, the quadrature tolerance;
    the saddle layer's root tolerance is its own constant.  abs_tol and
    truncation_drop, the relative integrand magnitude at which infinite
    rays are cut off, are constants that read like fields.
    """

    rel_tol: float = 1e-8
    max_nodes: int = 200_000
    abs_tol: ClassVar[float] = 1e-300
    truncation_drop: ClassVar[float] = 1e-16

    def __post_init__(self):
        if not (0 < self.rel_tol < 1):
            raise SpecError(f"rel_tol must be in (0,1), got {self.rel_tol}")
        if self.max_nodes <= 0:
            raise SpecError(f"max_nodes must be positive, got {self.max_nodes}")

    @classmethod
    def for_quadrature(cls, **kw) -> "Tolerances":
        """cls(**kw), kept only for perfbench/workloads.py's call."""
        return cls(**kw)

    def met_by(self, value: complex, abs_error: float,
               log_scale: float = 0.0) -> bool:
        """The convergence rule: abs_error <= max(abs_tol, rel_tol*|value|)
        for the quantity value * exp(log_scale) and its bar.  The absolute
        half is compared in log space, so no log_scale overflows it."""
        if abs_error <= self.rel_tol * abs(value):
            return True
        return abs_error > 0 and \
            math.log(abs_error) + log_scale <= math.log(self.abs_tol)


@dataclass(frozen=True)
class QuadratureResult:
    """Complex value with an absolute error estimate and node count.

    The represented quantity is value * exp(log_scale); log_scale is 0
    unless the magnitude left the double range, in which case abs_error
    is also relative to the same scale.  converged is True exactly when
    abs_error <= max(abs_tol, rel_tol * |value|) on that common scale,
    with the tolerances the evaluator was called with
    (Tolerances.met_by).
    """

    value: complex
    abs_error: float
    nodes: int
    converged: bool
    log_scale: float = 0.0

    def __post_init__(self):
        if self.abs_error < 0 or self.nodes <= 0:
            raise ValueError(f"bad quadrature result: {self}")

    @property
    def magnitude_log(self) -> float:
        """log |value * exp(log_scale)|, safe for out-of-range magnitudes."""
        a = abs(self.value)
        return (math.log(a) if a > 0 else -math.inf) + self.log_scale

    def rescaled(self, new_log_scale: float) -> "QuadratureResult":
        f = math.exp(self.log_scale - new_log_scale)
        return QuadratureResult(self.value * f, self.abs_error * f, self.nodes,
                                self.converged, new_log_scale)

