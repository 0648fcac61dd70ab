"""Seminormed square-zero extensions A (+) A/J with the twisted product

    (a, b) * (a', b') = (a a', pi(a) b' + pi(a') b),

normed by the maximum of the component (semi)norms.  The quotient A/J is
represented by an evaluator for its seminorm rather than ideal data; the
default J = 0 gives dual numbers, where the evaluator is the ring norm and
epsilon = (0, 1) has norm 1.
"""

from __future__ import annotations

from .errors import IncompatibleContext
from .lognorm import LogNorm, ln_max


class SquareZeroRing:
    """Square-zero extension of a base carrier (Scalar field or series
    ring).  ``base_one`` fixes the base ring; ``quotient_norm`` evaluates
    the seminorm of module components (defaults to the base norm)."""

    def __init__(self, base_one, quotient_norm=None):
        self.base_one = base_one
        self.base_zero = base_one - base_one
        self.radii = base_one.radius_ctx()
        self._qnorm = quotient_norm

    def quotient_norm(self, b) -> LogNorm:
        if self._qnorm is not None:
            return self._qnorm(b)
        if b.is_ring_zero():
            return LogNorm.zero(len(self.radii))
        return b.norm_ln()

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
        na = self.a.norm_ln() if not self.a.is_ring_zero() \
            else LogNorm.zero(len(self.ring.radii))
        # nb first, so that a zero b keeps its own ZERO when a is zero too
        return ln_max(self.ring.quotient_norm(self.b), na, self.ring.radii)

    def to_json(self):
        def enc(x):
            return x.to_literal() if hasattr(x, "to_literal") else x.to_json()
        return {"a": enc(self.a), "b": enc(self.b)}

    def __repr__(self):
        return f"({self.a!r}, {self.b!r})"
