"""Jets up to order 2: values carried together with their first and
second derivatives.

Weight functions expose log gamma as a jet so that the saddle solver's
Phi = (log gamma)' and Phi' = (log gamma)'' come out of exact chain-rule
composition instead of nested finite differences.  The fields are
either complex ndarrays, which broadcast, or Python complex numbers: the
same arithmetic serves both, so a jet evaluated on an ndarray of points
stays vectorized, and a jet at one point, which is what the saddle layer
evaluates, costs Python operations instead of numpy calls.  The same
arithmetic does not round the same way: on 10,000 pairs uniform in
|Re|, |Im| <= 10, numpy's complex * and / differ in the last bit from
Python's complex at 4,646 and 4,277 pairs, and np.log from cmath.log at
57 points (numpy 2.4, CPython 3.11).  So a weight's jet at one point and
on a one-element array can differ in the last bit.

A jet has an order: 0 carries the value alone, 1 adds f', 2 adds f''.
The fields past the order are None and are never computed, and each
field is built from the fields at or below its own order only, so the
fields a jet of order n does carry are bit-identical to the same fields
of the order-2 jet.  Arithmetic between jets keeps the lower order.
"""
from __future__ import annotations

import cmath

import numpy as np

_NUMBER = (complex, float, int)     # one point: numpy's complex128 and float64 too


def as_points(s):
    """s as a Python complex when it is one number, else as a complex ndarray."""
    return complex(s) if isinstance(s, _NUMBER) else np.asarray(s, dtype=complex)


class Jet2:
    """(f, f', f'') with arithmetic that propagates the derivatives it carries."""

    __slots__ = ("val", "d1", "d2", "order")

    def __init__(self, val, d1=None, d2=None):
        self.val = val
        self.d1 = d1
        self.d2 = d2
        self.order = 0 if d1 is None else 1 if d2 is None else 2

    @classmethod
    def variable(cls, s, order: int = 2) -> "Jet2":
        s = as_points(s)
        if isinstance(s, complex):
            return cls(s, 1.0 if order >= 1 else None, 0.0 if order >= 2 else None)
        return cls(s, np.ones_like(s) if order >= 1 else None,
                   np.zeros_like(s) if order >= 2 else None)

    def __add__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.val + other, self.d1, self.d2)
        n = min(self.order, other.order)
        return Jet2(self.val + other.val,
                    self.d1 + other.d1 if n >= 1 else None,
                    self.d2 + other.d2 if n >= 2 else None)

    __radd__ = __add__

    def __neg__(self):
        n = self.order
        return Jet2(-self.val, -self.d1 if n >= 1 else None,
                    -self.d2 if n >= 2 else None)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            n = self.order
            return Jet2(self.val * other, self.d1 * other if n >= 1 else None,
                        self.d2 * other if n >= 2 else None)
        n = min(self.order, other.order)
        return Jet2(
            self.val * other.val,
            self.d1 * other.val + self.val * other.d1 if n >= 1 else None,
            self.d2 * other.val + 2.0 * self.d1 * other.d1 + self.val * other.d2
            if n >= 2 else None,
        )

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet2":
        inv = 1.0 / self.val
        n = self.order
        g = self.d1 * inv if n >= 1 else None
        return Jet2(inv, -g * inv if n >= 1 else None,
                    (2.0 * g * g - self.d2 * inv) * inv if n >= 2 else None)

    def __truediv__(self, other):
        return self * other.reciprocal()

    def log(self) -> "Jet2":
        v = self.val
        n = self.order
        g = self.d1 / v if n >= 1 else None
        return Jet2(cmath.log(v) if isinstance(v, complex) else np.log(v), g,
                    self.d2 / v - g * g if n >= 2 else None)

    def __repr__(self):
        return f"Jet2(val={self.val!r}, d1={self.d1!r}, d2={self.d2!r})"
