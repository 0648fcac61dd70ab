"""Concrete complete non-archimedean valued fields with exact valuations.

Three field kinds are supported:

* ``PADIC``          -- Q_q, elements held as a reduced pair of ints
                        num/den (a capped representative is used once
                        inexact data appears, e.g. after root extraction);
* ``FQ_LAURENT``     -- F_{q^d}((t));
* ``RATFUN_LAURENT`` -- F_q(u1..uN)((t)).

A ``Scalar`` stores an exact representative plus an optional relative
precision: ``prec is None`` means the value is known exactly, ``prec = n``
means it is known modulo q^(v+n) (resp. t^(v+n)).  Valuations of nonzero
scalars are always exact; ultrametric precision propagation raises
``PrecisionExhausted`` rather than silently producing a fake zero.

A p-adic scalar stores its representative in the slots ``_num`` and
``_den``: ``_den > 0``, ``gcd(_num, _den) == 1`` and zero is ``(0, 1)``, so
equal values have equal pairs.  Products, quotients and sums keep the pair
reduced with the cross-gcd forms (Henrici 1956; Knuth, TAOCP vol. 2,
4.5.1), which take gcds of the operands' parts instead of the full results.
Nothing outside this module reads the pair: ``to_fraction`` and
``unit_part`` hand out ``Fraction``s.  A p-adic scalar computes its
valuation at most once, on first use, into the ``_val`` slot (which a
Laurent scalar uses for its exponent of t); results whose valuation is
known from their operands are built with it.

Powers of an exact p-adic series are computed over the integers
(``padic_support_pow``): one common denominator, then integer
square-and-multiply, giving the same coefficients as the scalar products.

A nonzero Laurent scalar is t^val times a unit series {offset: coefficient}
with a nonzero constant term and no offset at or beyond the precision.  The
coefficients live in ``spec.domain()`` (``coeffs.GF`` or
``coeffs.RatFunField``).  Sums and scalings of unit series are the
truncated multiply-add ``coeffs.series_axpy``; products, powers, truncated
quotients (a times the Newton inverse of b) and the Newton step of p-th
roots are built on the domain's truncated product ``series_mul``, which
``GF`` computes as one packed integer product.

``scalar_from_literal`` is the one reader of scalar literals: a regex
splits the text into tokens and four nested grammar functions evaluate
them by recursive descent.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .coeffs import GF, RatFunField, is_prime, poly_mul, power, series_axpy
from .errors import (DivisionByZero, NonarchError, NoRootInField,
                     PrecisionExhausted, PreconditionFailed)
from .lognorm import LogNorm

PADIC = "PADIC"
FQ_LAURENT = "FQ_LAURENT"
RATFUN_LAURENT = "RATFUN_LAURENT"

_KINDS = (PADIC, FQ_LAURENT, RATFUN_LAURENT)
# residues a p-adic root scans for the smallest p-th root of its residue
RESIDUE_SCAN_LIMIT = 1 << 20


class FieldSpec:
    """An immutable field description.  Its fields stay in the instance
    dict, the fastest attribute read; equality and hash compare ``_key``."""

    def __init__(self, kind, residue_prime, field_size=0, nvars=0,
                 precision_cap=40):
        if kind not in _KINDS:
            raise ValueError(f"unknown field kind {kind!r}")
        if not is_prime(residue_prime):
            raise ValueError(f"{residue_prime} is not prime")
        if precision_cap < 1:
            raise ValueError("precision_cap must be >= 1")
        dom = None
        if kind == FQ_LAURENT:
            d, s = 0, field_size
            while s > 1 and s % residue_prime == 0:
                s //= residue_prime
                d += 1
            if s != 1 or d < 1:
                raise ValueError(f"field_size {field_size} is not a power "
                                 f"of {residue_prime}")
            dom = GF(residue_prime, d)
        elif kind == RATFUN_LAURENT:
            if nvars < 0:
                raise ValueError("nvars must be >= 0")
            dom = RatFunField(residue_prime, nvars)
        self.__dict__.update(
            kind=kind, residue_prime=residue_prime, field_size=field_size,
            nvars=nvars, precision_cap=precision_cap, _domain=dom,
            _key=(kind, residue_prime, field_size, nvars, precision_cap))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"FieldSpec field {name!r} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return ("FieldSpec(kind={!r}, residue_prime={!r}, field_size={!r}, "
                "nvars={!r}, precision_cap={!r})".format(*self._key))

    @property
    def char(self) -> int:
        return 0 if self.kind == PADIC else self.residue_prime

    def domain(self):
        """The coefficient field of a Laurent kind (``GF`` or
        ``RatFunField``); None for PADIC."""
        return self._domain

    def to_json(self):
        obj = {"kind": self.kind, "residue_prime": self.residue_prime,
               "precision_cap": self.precision_cap}
        if self.kind == FQ_LAURENT:
            obj["field_size"] = self.field_size
        if self.kind == RATFUN_LAURENT:
            obj["num_pbasis_vars"] = self.nvars
        return obj

    @classmethod
    def from_json(cls, obj):
        """Spec from its JSON object (config entry or artifact param); a
        malformed object or an unknown key raises ValueError."""
        if not isinstance(obj, dict) or not isinstance(obj.get("kind"), str):
            raise ValueError('a field must be a JSON object with a string '
                             '"kind"')
        ints = ("residue_prime", "field_size", "num_pbasis_vars",
                "precision_cap")
        unknown = sorted(set(obj) - {"kind", *ints})
        if unknown:
            raise ValueError(f"unknown field keys {unknown}; known: "
                             f"{['kind', *ints]}")
        for key in ints:
            if (key in obj or key == "residue_prime") \
                    and type(obj.get(key)) is not int:
                raise ValueError(f"field {key!r} must be an integer")
        return cls(kind=obj["kind"], residue_prime=obj["residue_prime"],
                   field_size=obj.get("field_size", 0),
                   nvars=obj.get("num_pbasis_vars", 0),
                   precision_cap=obj.get("precision_cap", 40))

    def describe(self) -> str:
        if self.kind == PADIC:
            return f"Q_{self.residue_prime}"
        if self.kind == FQ_LAURENT:
            return f"F_{self.field_size}((t))"
        vs = ",".join(f"u{i + 1}" for i in range(self.nvars))
        return f"F_{self.residue_prime}({vs})((t))"


def _padic_val(num: int, den: int, q: int) -> int:
    """Valuation of the reduced fraction num/den."""
    if num == 0:
        raise ValueError("valuation of zero")
    # a reduced fraction has q in at most one of its two parts
    if num % q == 0:
        return _int_val(num, q)
    if den % q == 0:
        return -_int_val(den, q)
    return 0


def _int_val(n: int, q: int) -> int:
    """Exponent of q in n (n divisible by q): the powers q, q^2, q^4, ...
    bracket it, then its binary digits are read off from the top, one
    divmod each.

    Each of those steps is a pass over n, so an n wider than q^64 is
    first reduced mod q^64, once: a nonzero remainder has the same
    exponent (below 64), and the steps run on it instead.  A zero one
    leaves n as it is, with q, ..., q^64 known to divide it, and the
    bracketing goes on from q^64."""
    powers = [q]
    if n.bit_length() > q.bit_length() << 6:
        r = n % q ** 64
        if r:
            n = r
        else:
            for _ in range(6):
                powers.append(powers[-1] * powers[-1])
    while n % (sq := powers[-1] * powers[-1]) == 0:
        powers.append(sq)
    v = 0
    for i in range(len(powers) - 1, -1, -1):
        d, r = divmod(n, powers[i])
        if not r:
            n = d
            v += 1 << i
    return v


def _pmin(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _add_pair(a, b, c, d):
    """a/b + c/d as a reduced pair, for reduced pairs with b, d > 0: with
    g = gcd(b, d), only t = a*(d/g) + c*(b/g) can share a factor with the
    denominator, and only one that divides g.  A zero sum needs b == d,
    so it comes out as (0, 1)."""
    g = gcd(b, d)
    if g == 1:
        return a * d + c * b, b * d
    b //= g
    t = a * (d // g) + c * b
    h = gcd(t, g)
    return t // h, b * (d // h)


def _reduced(num, den):
    """num/den (den > 0) in lowest terms."""
    g = gcd(num, den)
    return num // g, den // g


def _times_q_pow(u, q, v):
    """u * q^v as a reduced pair, for an integer u prime to q."""
    return (u * q ** v, 1) if v >= 0 else (u, q ** -v)


class Scalar:
    """Capped-precision element of a concrete valued field."""

    __slots__ = ("spec", "_num", "_den", "_val", "_unit", "_prec")

    def __init__(self, spec, num=0, den=1, val=None, unit=None, prec=None):
        self.spec = spec
        self._num = num
        self._den = den
        self._val = val
        self._unit = unit
        self._prec = prec

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, spec):
        if spec.kind == PADIC:
            return cls(spec)
        return cls(spec, val=None, unit={})

    @classmethod
    def one(cls, spec):
        return cls.from_int(spec, 1)

    @classmethod
    def from_int(cls, spec, n: int):
        return cls.from_fraction(spec, n)

    @classmethod
    def from_fraction(cls, spec, fr):
        """The value of an int, a Fraction or any other input Fraction()
        reads."""
        if type(fr) is not int and type(fr) is not Fraction:
            fr = Fraction(fr)
        if spec.kind == PADIC:
            return cls(spec, fr.numerator, fr.denominator)
        dom = spec.domain()
        num = dom.from_int(fr.numerator)
        if fr.denominator != 1:
            den = dom.from_int(fr.denominator)
            if dom.is_zero(den):
                raise DivisionByZero(
                    f"denominator {fr.denominator} vanishes in "
                    f"characteristic {spec.char}")
            num = dom.mul(num, dom.inv(den))
        if dom.is_zero(num):
            return cls.zero(spec)
        return cls(spec, val=0, unit={0: num})

    @classmethod
    def t_power(cls, spec, k: int = 1):
        if spec.kind == PADIC:
            raise ValueError("t only exists in Laurent fields")
        return cls(spec, val=k, unit={0: spec.domain().one})

    @classmethod
    def uvar(cls, spec, i: int):
        if spec.kind != RATFUN_LAURENT:
            raise ValueError("u-variables only exist in the rational-function"
                             " field")
        if not 0 <= i < spec.nvars:
            raise ValueError(f"u{i + 1} is not declared (nvars={spec.nvars})")
        return cls(spec, val=0, unit={0: spec.domain().var(i)})

    @classmethod
    def _laurent(cls, spec, val, unit, prec=None):
        dom = spec.domain()
        unit = {k: c for k, c in unit.items() if not dom.is_zero(c)}
        if not unit:
            if prec is not None:
                raise PrecisionExhausted(
                    "value indistinguishable from zero at the cap")
            return cls.zero(spec)
        shift = min(unit)
        if shift:
            unit = {k - shift: c for k, c in unit.items()}
            val += shift
            if prec is not None:
                prec -= shift
        if prec is not None and prec <= 0:
            raise PrecisionExhausted(
                "value indistinguishable from zero at the cap")
        if prec is not None:
            unit = {k: c for k, c in unit.items() if k < prec}
        return cls(spec, val=val, unit=unit, prec=prec)

    # -- predicates / accessors ---------------------------------------

    @property
    def kind(self):
        return self.spec.kind

    @property
    def precision(self):
        return self._prec

    @property
    def exact(self) -> bool:
        return self._prec is None

    def is_ring_zero(self) -> bool:
        if self.spec.kind == PADIC:
            return not self._num and self._prec is None
        return self._val is None

    def valuation(self):
        """Exact valuation; None encodes +infinity (the zero element)."""
        v = self._val
        if v is None and self.spec.kind == PADIC and self._num:
            # computed once, on first use
            v = self._val = _padic_val(self._num, self._den,
                                       self.spec.residue_prime)
        return v

    def norm_ln(self, arity: int = 0) -> LogNorm:
        v = self.valuation()
        if v is None:
            return LogNorm.zero(arity)
        return LogNorm._make(v, (0,) * arity)

    def radius_ctx(self):
        return ()

    def unit_part(self):
        """Exact representative of the unit (value / q^v resp. t^v): a
        Fraction for a p-adic scalar, a unit series for a Laurent one."""
        if self.spec.kind == PADIC:
            if not self._num:
                raise ValueError("zero has no unit part")
            return Fraction(*self._padic_unit())
        if self._val is None:
            raise ValueError("zero has no unit part")
        return dict(self._unit)

    def to_fraction(self) -> Fraction:
        """The rational representative of a p-adic scalar (its value when
        ``exact``)."""
        if self.spec.kind != PADIC:
            raise ValueError("only p-adic scalars have a rational "
                             "representative")
        return Fraction(self._num, self._den)

    def _padic_unit(self):
        """The unit value / q^v of a nonzero p-adic scalar, as a reduced
        pair."""
        q, v = self.spec.residue_prime, self.valuation()
        if v >= 0:
            return self._num // q ** v, self._den
        return self._num, self._den // q ** -v

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Scalar) or (other.spec is not self.spec
                                             and other.spec != self.spec):
            raise ValueError("scalars from different fields")

    def _known_abs(self):
        """Absolute precision: value known modulo q^known (None = exact)."""
        if self._prec is None:
            return None
        v = self.valuation()
        return v + self._prec

    def __add__(self, other):
        spec = self.spec
        if not isinstance(other, Scalar) or (other.spec is not spec
                                             and other.spec != spec):
            raise ValueError("scalars from different fields")
        if self._prec is None and other._prec is None:
            known = None
        else:
            known = _pmin(self._known_abs(), other._known_abs())
        if spec.kind == PADIC:
            num, den = _add_pair(self._num, self._den, other._num,
                                 other._den)
            if known is None:
                return Scalar(spec, num, den)
            v = _padic_val(num, den, spec.residue_prime) if num else None
            if v is None or v >= known:
                raise PrecisionExhausted(
                    "sum indistinguishable from zero at the cap")
            return Scalar(spec, num, den, v, None, known - v)
        dom = spec._domain
        merged = {}
        for s in (self, other):
            if s._val is not None:
                series_axpy(merged, None, s._val, s._unit, dom, known)
        if not merged:
            if known is None:
                return Scalar.zero(spec)
            raise PrecisionExhausted(
                "sum indistinguishable from zero at the cap")
        return Scalar._laurent(spec, 0, merged, known)

    def __neg__(self):
        if self.spec.kind == PADIC:
            return Scalar(self.spec, -self._num, self._den, val=self._val,
                          prec=self._prec)
        if self._val is None:
            return self
        dom = self.spec.domain()
        return Scalar(self.spec, val=self._val,
                      unit={k: dom.neg(c) for k, c in self._unit.items()},
                      prec=self._prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # one body per product, no helper calls: this runs once per term
        # pair of every series product
        spec = self.spec
        if not isinstance(other, Scalar) or (other.spec is not spec
                                             and other.spec != spec):
            raise ValueError("scalars from different fields")
        prec, p2 = self._prec, other._prec
        if prec is None or p2 is not None and p2 < prec:
            prec = p2
        v, w = self._val, other._val
        if spec.kind == PADIC:
            a, c = self._num, other._num
            if not a or not c:
                return Scalar(spec)                     # an exact zero
            # (a/b) * (c/d) stays reduced once a is cancelled against d
            # and c against b
            b, d = self._den, other._den
            g, h = gcd(a, d), gcd(c, b)
            return Scalar(spec, (a // g) * (c // h), (b // h) * (d // g),
                          None if v is None or w is None else v + w, None,
                          prec)
        if v is None or w is None:
            return Scalar.zero(spec)
        # the constant terms multiply to a nonzero constant term: a unit
        return Scalar(spec, 0, 1, v + w,
                      spec._domain.series_mul(self._unit, other._unit, prec),
                      prec)

    def __truediv__(self, other):
        self._check(other)
        if other.is_ring_zero():
            raise DivisionByZero("scalar division by zero")
        if self.spec.kind == PADIC:
            # times the reciprocal d/c, the sign moved to the numerator
            c, d, v = other._num, other._den, other._val
            if c < 0:
                c, d = -c, -d
            return self * Scalar(self.spec, d, c, None if v is None else -v,
                                 None, other._prec)
        if self._val is None:
            return self
        unit, prec = _su_div(self._unit, other._unit, self.spec.domain(),
                             _pmin(self._prec, other._prec),
                             self.spec.precision_cap)
        return Scalar(self.spec, val=self._val - other._val, unit=unit,
                      prec=prec)

    def invert(self):
        return Scalar.one(self.spec) / self

    def pow_int(self, k: int):
        if self.spec.kind == PADIC and k and self._num:
            # a reduced pair's power needs no gcd, unlike its products
            num, den, v = self._num, self._den, self._val
            if k < 0:
                num, den = (den, num) if num > 0 else (-den, -num)
            return Scalar(self.spec, num ** abs(k), den ** abs(k),
                          val=None if v is None else k * v, prec=self._prec)
        if k < 0:
            return self.invert().pow_int(-k)
        return power(self, k, mul, Scalar.one(self.spec))

    def div_int(self, n: int):
        return self / Scalar.from_int(self.spec, n)

    def ring_one(self):
        return Scalar.one(self.spec)

    def equals(self, other) -> bool:
        """Equality to the available working precision."""
        self._check(other)
        if self.exact and other.exact:
            if self.spec.kind == PADIC:
                return self._num == other._num and self._den == other._den
            return self._val == other._val and self._unit == other._unit
        try:
            return (self - other).is_ring_zero()
        except PrecisionExhausted:
            return True

    def rep_size(self) -> int:
        """Rough bit size of the stored representation."""
        if self.spec.kind == PADIC:
            return self._num.bit_length() + self._den.bit_length()
        return 8 * (1 + len(self._unit or {}))

    def reduce_representative(self, depth: int):
        """Exact value with the same leading digits, small representation.

        Returns an exact scalar congruent to self modulo q^depth (resp.
        t^depth) whose representation size is O(depth).  Used to keep
        contractive iterations from accumulating exponentially large exact
        representatives; the returned value is still exact, it is simply a
        different point of the same ultrametric ball.
        """
        if self.is_ring_zero() or self._prec is not None:
            return self
        v = self.valuation()
        return self if v >= depth else self._cut(depth - v, None)

    def cap(self):
        """Canonical representative truncated at the field's precision cap."""
        if self.is_ring_zero():
            return self
        cap = self.spec.precision_cap
        prec = cap if self._prec is None else min(self._prec, cap)
        return self._cut(prec, prec)

    def _cut(self, rel: int, prec):
        """Self (nonzero) with its unit cut below q^rel (resp. t^rel), the
        valuation kept, tagged with precision prec (None: exact)."""
        if self.spec.kind == PADIC:
            v = self.valuation()
            u = _unit_mod(self, rel)
            return Scalar(self.spec, *_times_q_pow(u, self.spec.residue_prime,
                                                   v), val=v, prec=prec)
        return Scalar._laurent(self.spec, self._val,
                               {k: c for k, c in self._unit.items()
                                if k < rel}, prec)

    # -- display / serialisation ---------------------------------------

    def to_literal(self) -> str:
        if self.is_ring_zero():
            return "0"
        if self.spec.kind == PADIC:
            v = self.valuation()
            num, den = self._padic_unit()
            us = (_int_str(num) if den == 1
                  else f"{_int_str(num)}/{_int_str(den)}")
            if v == 0:
                return us
            return f"{us}*{self.spec.residue_prime}^{v}"
        dom = self.spec.domain()
        parts = []
        for k in sorted(self._unit):
            c = self._unit[k]
            e = self._val + k
            cs = dom.to_str(c)
            if not dom.atomic_str(c):
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            else:
                tp = "t" if e == 1 else f"t^{e}"
                parts.append(tp if cs == "1" else f"{cs}*{tp}")
        return " + ".join(parts)

    def __repr__(self):
        tag = "" if self._prec is None else f" +O(^{self._prec})"
        return f"<{self.to_literal()}{tag} in {self.spec.describe()}>"

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.spec == other.spec and self._prec == other._prec
                and (self._num == other._num and self._den == other._den
                     if self.spec.kind == PADIC
                     else (self._val == other._val
                           and self._unit == other._unit)))

    def __hash__(self):
        if self.spec.kind == PADIC:
            return hash((self.spec, self._num, self._den, self._prec))
        unit = tuple(sorted(self._unit.items())) if self._unit else ()
        return hash((self.spec, self._val, unit, self._prec))


# -- unit series: {offset: nonzero coefficient} over the coefficient field


def _su_pow(a, e, dom, limit):
    return power(a, e, lambda x, y: dom.series_mul(x, y, limit), {0: dom.one})


def _su_inverse(b, dom, n):
    """1 / b to n terms, for a unit series b: Newton's x <- x + x*(1 - b*x)
    from x = 1/b_0, doubling the length of x each step."""
    one = dom.one
    minus_one = dom.neg(one)
    x = {0: dom.inv(b[0])}
    length = 1
    while length < n:
        length = min(2 * length, n)
        # e = b*x - 1 starts at the old length
        e = series_axpy(dom.series_mul(b, x, length), minus_one, 0,
                        {0: one}, dom, None)
        series_axpy(x, minus_one, 0, dom.series_mul(x, e, length), dom,
                    None)
    return x


def _su_div(a, b, dom, prec, cap):
    """Unit series a / b, with its relative precision.

    Exact when b is a constant or divides a; otherwise a times the Newton
    inverse of b, to prec terms (cap terms when both inputs are exact).
    """
    if len(b) == 1:
        return series_axpy({}, dom.inv(b[0]), 0, a, dom, prec), prec
    if prec is None:
        # polynomial division by the leading term
        rem, out = dict(a), {}
        db = max(b)
        lead_inv = dom.inv(b[db])
        while rem:
            dr = max(rem)
            if dr < db:
                break
            c = out[dr - db] = dom.mul(rem[dr], lead_inv)
            series_axpy(rem, dom.neg(c), dr - db, b, dom, None)
        if not rem:
            return out, None
        prec = cap
    return dom.series_mul(a, _su_inverse(b, dom, prec), prec), prec


# -- powers of exact p-adic series, over the integers


def padic_support_pow(spec, support, k, arity, cap):
    """The support {exponent: Scalar} of f^k (k >= 0) for the exact series
    f with the given support, or None when this kernel does not apply.

    f = F/D with D the lcm of the coefficient denominators; F^k runs the
    square-and-multiply schedule of ``TateSeries.pow_int`` on {exponent:
    int} dicts, and each term of the result is n/D^k in lowest terms.
    None (the caller multiplies scalars instead) for a Laurent field, a
    capped coefficient, or an intermediate support above ``cap``, which is
    where the scalar path starts pruning.  Not ``power``: the loop stops
    at the first support above ``cap``, and that stop decides the bytes.
    """
    if spec.kind != PADIC or any(c._prec is not None
                                 for c in support.values()):
        return None
    den = lcm(*(c._den for c in support.values()))
    base = {e: c._num * (den // c._den) for e, c in support.items()}
    out = {(0,) * arity: 1}
    bits = k
    while bits:
        if bits & 1:
            out = poly_mul(out, base, 0)
            if len(out) > cap:
                return None
        if bits > 1:
            base = poly_mul(base, base, 0)
            if len(base) > cap:
                return None
        bits >>= 1
    dk = den ** k
    return {e: Scalar(spec, *_reduced(n, dk)) for e, n in out.items()}


# ---------------------------------------------------------------------------
# Module-level operations (the field API surface)


def check_aux_prime(spec: FieldSpec, p: int) -> bool:
    """True iff p maps to a norm-1 element of the field."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if spec.kind == PADIC:
        return p != spec.residue_prime
    return p % spec.char != 0


def scalar_pth_root(a: Scalar, p: int) -> Scalar:
    """Deterministic p-th root inside the field, capped at the precision cap.

    Root selection: the lift of residue 1 whenever the unit of ``a`` is
    congruent to 1 in the residue field (the branch with |root - 1| < 1);
    otherwise the lift of the smallest canonical residue root.
    """
    spec = a.spec
    if not check_aux_prime(spec, p):
        raise PreconditionFailed(
            f"auxiliary prime {p} does not have norm 1 in "
            f"{spec.describe()}")
    if a.is_ring_zero():
        return a
    v = a.valuation()
    if v % p != 0:
        raise NoRootInField(
            f"valuation {v} is not divisible by {p}")
    if spec.kind == PADIC:
        return _padic_root(a, p, v)
    return _laurent_root(a, p, v)


def _unit_mod(a: Scalar, m: int) -> int:
    """The unit of a nonzero p-adic scalar as an integer reduced modulo
    q^m."""
    num, den = a._padic_unit()
    qm = a.spec.residue_prime ** m
    return num * pow(den, -1, qm) % qm


def _padic_root(a: Scalar, p: int, v: int) -> Scalar:
    spec = a.spec
    q = spec.residue_prime
    m = spec.precision_cap if a._prec is None else min(a._prec,
                                                       spec.precision_cap)
    qm = q ** m
    u = _unit_mod(a, m)
    r = u % q
    # residue 1 keeps its root 1; x -> x^p permutes F_q^x if p does not
    # divide q - 1, and otherwise a scan finds the smallest root
    if r != 1 and (q - 1) % p:
        r = pow(r, pow(p, -1, q - 1), q)
    elif r != 1:
        if pow(r, (q - 1) // p, q) != 1:   # Euler's criterion
            raise NoRootInField(f"residue {r} has no {p}-th root in F_{q}")
        x = next((x for x in range(2, min(q, RESIDUE_SCAN_LIMIT))
                  if pow(x, p, q) == r), None)
        if x is None:
            raise NonarchError(f"no {p}-th root of residue {r} in F_{q} "
                               f"below {RESIDUE_SCAN_LIMIT}, the scan limit")
        r = x
    for _ in range(m.bit_length() + 2):
        fr = (pow(r, p, qm) - u) % qm
        if fr == 0:
            break
        dr = (p * pow(r, p - 1, qm)) % qm
        r = (r - fr * pow(dr, -1, qm)) % qm
    if (pow(r, p, qm) - u) % qm != 0:
        raise NoRootInField("Hensel lifting failed to converge")
    return Scalar(spec, *_times_q_pow(r, q, v // p), val=v // p, prec=m)


def _laurent_root(a: Scalar, p: int, v: int) -> Scalar:
    spec = a.spec
    dom = spec.domain()
    L = spec.precision_cap if a._prec is None else min(a._prec,
                                                       spec.precision_cap)
    unit = a._unit
    r0 = unit[0]
    if r0 != dom.one:
        roots = dom.nth_roots(r0, p)
        if not roots:
            raise NoRootInField(
                f"residue coefficient has no {p}-th root in the residue "
                f"field")
        r0 = roots[0]
    r = {0: r0}
    minus_one, p_dom = dom.neg(dom.one), dom.from_int(p)
    length = 1
    while length < L:
        length = min(2 * length, L)
        # Newton step r -= (r^p - unit) / (p * r^(p-1)) at this length
        rp1 = _su_pow(r, p - 1, dom, length)
        diff = series_axpy(dom.series_mul(rp1, r, length), minus_one, 0,
                           unit, dom, length)
        if not diff:
            continue
        inv_deriv = _su_inverse(series_axpy({}, p_dom, 0, rp1, dom, None),
                                dom, length)
        series_axpy(r, minus_one, 0, dom.series_mul(diff, inv_deriv, length),
                    dom, length)
    if series_axpy(_su_pow(r, p, dom, L), minus_one, 0, unit, dom, L):
        raise NoRootInField("t-adic Newton lifting failed to converge")
    return Scalar._laurent(spec, v // p, r, L)


# ---------------------------------------------------------------------------
# Scalar literals


def _int_str(n: int) -> str:
    """str(n), also past the interpreter's int-to-str digit limit
    (``sys.set_int_max_str_digits``), where ``Decimal`` converts."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


# decimal digits, a name (a letter, then letters and digits) or one other
# non-space character; "_" joins no word, as int() would read "3_000"
_TOKEN = re.compile(r"\d+|[^\W\d_][^\W_]*|\S")


def _token(tok):
    """An int, a name or one of ``+-*/^()``; ValueError otherwise."""
    if tok[0].isalpha() or tok in "+-*/^()":
        return tok
    if not tok[0].isdigit():
        raise ValueError(f"bad character {tok!r} in scalar literal")
    try:
        return int(tok)             # "invalid literal" for "²"
    except ValueError:
        if not tok.isdecimal():
            raise
        # past the interpreter's str-to-int limit; Decimal has none
        return int(Decimal(tok))


def scalar_from_literal(spec: FieldSpec, s: str) -> Scalar:
    """The value of a scalar literal; ValueError if it is malformed.
    Parentheses nest at most 200 deep, four Python frames a level."""
    toks = [_token(tok) for tok in _TOKEN.findall(s)]
    toks.append(None)               # the end; nothing is read past it
    pos = depth = 0

    def expr():
        nonlocal pos
        v = term()
        while (op := toks[pos]) in ("+", "-"):
            pos += 1
            v = v + term() if op == "+" else v - term()
        return v

    def term():
        nonlocal pos
        v = factor()
        while (op := toks[pos]) in ("*", "/"):
            pos += 1
            v = v * factor() if op == "*" else v / factor()
        return v

    def factor():
        nonlocal pos
        neg = False
        while (op := toks[pos]) in ("+", "-"):
            neg ^= op == "-"
            pos += 1
        v = atom()
        if toks[pos] == "^":
            neg_exp = toks[pos + 1] == "-"
            e = toks[pos + 1 + neg_exp]
            pos += 2 + neg_exp
            if type(e) is not int:
                raise ValueError("exponent must be an integer")
            v = v.pow_int(-e if neg_exp else e)
        return -v if neg else v

    def atom():
        nonlocal pos, depth
        tok = toks[pos]
        pos += 1
        if tok == "(":
            depth += 1
            if depth > 200:
                raise ValueError("scalar literal nested too deeply")
            v = expr()
            if toks[pos] != ")":
                raise ValueError("unbalanced parenthesis")
            pos += 1
            depth -= 1
            return v
        if type(tok) is int:
            return Scalar.from_int(spec, tok)
        if tok == "t":
            return Scalar.t_power(spec, 1)
        if tok == "w" and spec.kind == FQ_LAURENT:
            return Scalar(spec, val=0, unit={0: spec.domain().generator()})
        if tok and tok[0] == "u" and tok[1:].isdigit():
            return Scalar.uvar(spec, int(tok[1:]) - 1)
        raise ValueError(f"unexpected token {tok!r} in scalar literal")

    v = expr()
    if toks[pos] is not None:
        raise ValueError(f"trailing input at token {toks[pos]!r}")
    return v
