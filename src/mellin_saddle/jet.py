"""Order-2 jets: values carried together with first and second derivatives.

Weight functions expose log gamma as a jet so that the saddle solver's
Phi = (log gamma)' and Phi' = (log gamma)'' come out of exact chain-rule
composition instead of nested finite differences.  All fields broadcast,
so a jet evaluated on an ndarray of points stays vectorized.
"""
from __future__ import annotations

import numpy as np


class Jet2:
    """(f, f', f'') with arithmetic that propagates both derivatives."""

    __slots__ = ("val", "d1", "d2")

    def __init__(self, val, d1, d2):
        self.val = val
        self.d1 = d1
        self.d2 = d2

    @classmethod
    def variable(cls, s) -> "Jet2":
        s = np.asarray(s, dtype=complex)
        one = np.ones_like(s)
        return cls(s, one, np.zeros_like(s))

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.val + other.val, self.d1 + other.d1, self.d2 + other.d2)
        return Jet2(self.val + other, self.d1, self.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.val, -self.d1, -self.d2)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet2) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.val * other.val,
                self.d1 * other.val + self.val * other.d1,
                self.d2 * other.val + 2.0 * self.d1 * other.d1 + self.val * other.d2,
            )
        return Jet2(self.val * other, self.d1 * other, self.d2 * other)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet2":
        inv = 1.0 / self.val
        g = self.d1 * inv
        return Jet2(inv, -g * inv, (2.0 * g * g - self.d2 * inv) * inv)

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def log(self) -> "Jet2":
        g = self.d1 / self.val
        return Jet2(np.log(self.val), g, self.d2 / self.val - g * g)

    def exp(self) -> "Jet2":
        e = np.exp(self.val)
        return Jet2(e, e * self.d1, e * (self.d2 + self.d1 * self.d1))

    def pow(self, p) -> "Jet2":
        """self**p for a constant exponent, via exp(p*log) off the cut."""
        if p == 1:
            return self
        return (self.log() * p).exp()

    def __repr__(self):
        return f"Jet2(val={self.val!r}, d1={self.d1!r}, d2={self.d2!r})"
