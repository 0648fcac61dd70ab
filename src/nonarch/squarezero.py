"""Dual numbers A[eps] = A (+) A eps over a base carrier A, with

    (a, b) * (a', b') = (a a', a b' + a' b),

normed by the maximum of the component norms, so eps = (0, 1) has norm 1.
This is where phi(P) = (P(T, f), dP/dF(T, f)) lands.
"""

from __future__ import annotations

from .errors import IncompatibleContext
from .lognorm import LogNorm, ln_max


class SquareZeroRing:
    """Dual numbers over a base carrier (Scalar field or series ring);
    ``base_one`` fixes the base ring."""

    def __init__(self, base_one):
        self.base_one = base_one
        self.base_zero = base_one - base_one
        self.radii = base_one.radius_ctx()
        self.zero_norm = LogNorm.zero(len(self.radii))

    def elem(self, a, b) -> "SquareZeroElem":
        return SquareZeroElem(self, a, b)

    def embed(self, a) -> "SquareZeroElem":
        """The isometric section a -> (a, 0)."""
        return SquareZeroElem(self, a, self.base_zero)

    def one(self) -> "SquareZeroElem":
        return self.embed(self.base_one)

    def zero(self) -> "SquareZeroElem":
        return SquareZeroElem(self, self.base_zero, self.base_zero)


class SquareZeroElem:
    __slots__ = ("ring", "a", "b")

    def __init__(self, ring: SquareZeroRing, a, b):
        self.ring = ring
        self.a = a
        self.b = b

    def _check(self, other):
        if not isinstance(other, SquareZeroElem) or other.ring is not self.ring:
            raise IncompatibleContext(
                "square-zero elements from different rings")

    def __add__(self, other):
        self._check(other)
        return SquareZeroElem(self.ring, self.a + other.a, self.b + other.b)

    def __mul__(self, other):
        self._check(other)
        return SquareZeroElem(self.ring, self.a * other.a,
                              self.a * other.b + other.a * self.b)

    def equals(self, other) -> bool:
        self._check(other)
        return self.a.equals(other.a) and self.b.equals(other.b)

    def norm_ln(self) -> LogNorm:
        ring = self.ring
        na = ring.zero_norm if self.a.is_ring_zero() else self.a.norm_ln()
        nb = ring.zero_norm if self.b.is_ring_zero() else self.b.norm_ln()
        return ln_max(nb, na, ring.radii)

    def __repr__(self):
        return f"({self.a!r}, {self.b!r})"
