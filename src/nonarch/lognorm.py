"""Exact multiplicative norm values q^(-e0) * prod r_j^(e_j).

A ``LogNorm`` stores the exponent data exactly: an exponent is an ``int``
when it is integral (valuations, series exponents) and a ``Fraction``
otherwise.  The two are interchangeable: ``Fraction(3) == 3``, they hash
alike and print alike, so neither comparisons nor artifact bytes depend on
which one an exponent is.  ``LogNorm`` is an immutable slotted class;
builders whose operands are already exact use its trusted ``_make``.
Formal radii r_j are declared once per session as ``RadiusDecl`` objects
carrying a refinable interval for log_q(1/r_j).

Every norm order is decided by one sign function, ``_log_sign``, of the
log-difference e0 + sum e_j * log_q(1/r_j).  When every radius in it is
quadratic, log_q(1/r_j) = (a_j + b_j*sqrt(d))/c_j with integers a_j, b_j,
c_j over one common d, the difference times the lcm of the c_j is
A + B*sqrt(d), and its sign is decided exactly by comparing A^2 with
B^2*d; an exact zero there is final.  Otherwise (radii over different
sqrt(d), rational stubs) the intervals are refined to depth 256, and a
difference that vanishes exactly or is too small stays undecided.

``ln_compare`` gives up on an undecided difference with
``UndecidableAtDepth``; ``ln_max`` is the one norm maximum, and
``norm_exceeds`` decides value > bound by comparing against the powers of
q that bracket the bound.  ``ln_sorted`` orders many norms by the same
sign and keeps undecided pairs in input order, so series pruning cannot
fail on a tie.
"""

from __future__ import annotations

import enum
import re
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, isqrt, log
from operator import add, sub

from .errors import UndecidableAtDepth

MAX_REFINE_DEPTH = 256


class Cmp(enum.Enum):
    LT = -1
    EQ = 0
    GT = 1


class LogNorm:
    """Norm value q^(-base_exp) * prod_j r_j^(radius_exps[j]); ZERO is the
    norm of 0 and is absorbing/minimal.  Immutable: assigning an attribute
    raises ``AttributeError``."""

    __slots__ = ("base_exp", "radius_exps", "is_zero")

    def __init__(self, base_exp, radius_exps, is_zero=False):
        if type(base_exp) not in _EXACT:
            base_exp = Fraction(base_exp)
        if not (type(radius_exps) is tuple
                and all(type(e) in _EXACT for e in radius_exps)):
            radius_exps = tuple(e if type(e) in _EXACT else Fraction(e)
                                for e in radius_exps)
        if is_zero and (base_exp or any(radius_exps)):
            raise ValueError("ZERO norm must carry zero exponents")
        _set_base(self, base_exp)
        _set_radius(self, radius_exps)
        _set_zero(self, is_zero)

    @classmethod
    def _make(cls, base_exp, radius_exps):
        """Trusted constructor of a nonzero norm: `base_exp` is an int or
        a Fraction and `radius_exps` a tuple of ints and Fractions."""
        self = _new(cls)
        _set_base(self, base_exp)
        _set_radius(self, radius_exps)
        _set_zero(self, False)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base_exp == other.base_exp
                and self.radius_exps == other.radius_exps
                and self.is_zero == other.is_zero)

    def __hash__(self):
        return hash((self.base_exp, self.radius_exps, self.is_zero))

    def __repr__(self):
        return (f"LogNorm(base_exp={self.base_exp!r}, "
                f"radius_exps={self.radius_exps!r}, is_zero={self.is_zero!r})")

    def __reduce__(self):
        return LogNorm, (self.base_exp, self.radius_exps, self.is_zero)

    @classmethod
    def zero(cls, arity: int = 0):
        """The shared (immutable) ZERO norm of this arity."""
        z = _ZEROS.get(arity)
        if z is None:
            z = _ZEROS[arity] = cls(0, (0,) * arity, True)
        return z

    @classmethod
    def identity(cls, arity: int = 0):
        return cls._make(0, (0,) * arity)

    @classmethod
    def of(cls, base_exp, radius_exps=()):
        return cls(base_exp, tuple(radius_exps))

    @property
    def arity(self) -> int:
        return len(self.radius_exps)

    def is_identity(self) -> bool:
        return (not self.is_zero and self.base_exp == 0
                and not any(self.radius_exps))

    def pad(self, arity: int) -> "LogNorm":
        """Embed a norm with no radius components into a wider context."""
        if self.arity == arity:
            return self
        if any(self.radius_exps):
            raise ValueError("cannot re-pad a norm with radius components")
        if self.is_zero:
            return LogNorm.zero(arity)
        return LogNorm._make(self.base_exp, (0,) * arity)

    def to_json(self):
        if self.is_zero:
            return {"zero": True}
        return {"e0": str(self.base_exp),
                "radius": [str(e) for e in self.radius_exps]}

    @classmethod
    def from_json(cls, obj):
        if obj.get("zero"):
            return cls.zero()
        return cls(_ratio(obj["e0"], "norm exponent"),
                   tuple(_ratio(s, "norm exponent")
                         for s in obj.get("radius", [])))

    def __str__(self):
        if self.is_zero:
            return "ZERO"
        rads = ";".join(str(e) for e in self.radius_exps)
        return f"({self.base_exp};{rads})" if rads else f"({self.base_exp})"


_ZEROS = {}
# the exponent types kept as they are; anything else becomes a Fraction
_EXACT = (int, Fraction)
_new = object.__new__
_set_base = LogNorm.base_exp.__set__
_set_radius = LogNorm.radius_exps.__set__
_set_zero = LogNorm.is_zero.__set__


def ln_mul(a: LogNorm, b: LogNorm) -> LogNorm:
    if a.is_zero or b.is_zero:
        return LogNorm.zero(max(a.arity, b.arity))
    if len(a.radius_exps) != len(b.radius_exps):
        raise ValueError("norms from different radius contexts")
    return LogNorm._make(a.base_exp + b.base_exp,
                         tuple(map(add, a.radius_exps, b.radius_exps)))


def ln_pow(a: LogNorm, s) -> LogNorm:
    """a^s; an int power keeps int exponents ints."""
    if type(s) not in _EXACT:
        s = Fraction(s)
    if a.is_zero:
        if s <= 0:
            raise ValueError("ZERO norm cannot be raised to a power <= 0")
        return a
    return LogNorm._make(a.base_exp * s, tuple(e * s for e in a.radius_exps))


def in_value_group_rational(a: LogNorm) -> bool:
    """Membership of the value in |k^x|^Q: no formal-radius component."""
    if a.is_zero:
        raise ValueError("ZERO norm has no value-group class")
    return not any(a.radius_exps)


# ---------------------------------------------------------------------------
# Radius declarations


def _ratio(x, what):
    """An int, or the string of an integer or of p/q with q > 0, as a
    Fraction; ValueError for "1/0" or "1e999999999" (10^exp never ends)."""
    if type(x) is not int and not (
            type(x) is str and re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", x)):
        raise ValueError(f"{what} {x!r} is not an integer or p/q with q > 0")
    return Fraction(x)


def _sqrt_interval(d: int, depth: int):
    """Dyadic interval of width 2^-depth around sqrt(d)."""
    scale = 1 << depth
    s = isqrt(d * scale * scale)
    return Fraction(s, scale), Fraction(s + 1, scale)


class RadiusDecl:
    """One declared formal radius r, described by log_q(1/r).

    A declaration is data: ``kind`` and ``params`` say what log_q(1/r) is,
    and ``interval(depth)`` computes exact rational bounds [lo, hi] around
    it, of width <= 2^-depth (times |b|/c for a quadratic one).  A
    quadratic declaration, log_q(1/r) = (a + b*sqrt(d))/c, exposes
    ``quadratic_parts`` = (d, a, b, c), the integers ``_log_sign`` decides
    with exactly.  ``asserts_irrational`` is computed, never declared: it
    is True only for a quadratic declaration with b != 0 and d not a
    perfect square.  A rational stub keeps its ``value``.
    """

    def __init__(self, gen_id, kind, params, note=""):
        self.gen_id = gen_id
        self.kind = kind
        self.params = params
        self.note = note
        self.asserts_irrational = False
        self.quadratic_parts = self.value = None

    @classmethod
    def quadratic(cls, gen_id, a, b, c, d, note=""):
        """log_q(1/r) = (a + b*sqrt(d)) / c with integers a, b, c>0, d>0."""
        a, b, c, d = int(a), int(b), int(c), int(d)
        if c <= 0 or d <= 0:
            raise ValueError("need c > 0 and d > 0")
        decl = cls(gen_id, "quadratic", {"a": a, "b": b, "c": c, "d": d},
                   note)
        decl.asserts_irrational = b != 0 and isqrt(d) ** 2 != d
        decl.quadratic_parts = (d, a, b, c)
        return decl

    @classmethod
    def rational_stub(cls, gen_id, value, note=""):
        """Declaration pinned at a rational value, for hand-readable
        exponents; r lies in |k^x|^Q, so it is never irrational."""
        value = Fraction(value)
        decl = cls(gen_id, "rational", {"value": str(value)}, note)
        decl.value = value
        return decl

    @classmethod
    def default(cls, gen_id="r1"):
        # log_q(1/r) = sqrt(2)/2 = 0.70710678...; guaranteed irrational.
        return cls.quadratic(gen_id, 0, 1, 2, 2,
                             note="log_q(1/r) = sqrt(2)/2")

    def interval(self, depth: int):
        if self.quadratic_parts is None:
            eps = Fraction(1, 1 << (depth + 2))
            return self.value - eps, self.value + eps
        d, a, b, c = self.quadratic_parts
        lo, hi = _sqrt_interval(d, depth)
        if b < 0:
            lo, hi = hi, lo
        return (a + b * lo) / c, (a + b * hi) / c

    def to_json(self):
        return {"gen_id": self.gen_id, "kind": self.kind,
                "params": self.params,
                "asserts_irrational": self.asserts_irrational,
                "note": self.note}

    @classmethod
    def from_json(cls, obj):
        """Declaration from its JSON object (config entry or artifact
        param).  A malformed object, an unknown key, or an
        "asserts_irrational" other than the computed value raises
        ValueError."""
        if not (isinstance(obj, dict) and isinstance(obj.get("gen_id"), str)
                and isinstance(obj.get("params"), dict)
                and isinstance(obj.get("note", ""), str)
                and type(obj.get("asserts_irrational", False)) is bool):
            raise ValueError('a radius must be a JSON object with a string '
                             '"gen_id", a "params" object, a string "note" '
                             'and a boolean "asserts_irrational"')
        known = ["asserts_irrational", "gen_id", "kind", "note", "params"]
        unknown = sorted(set(obj) - set(known))
        if unknown:
            raise ValueError(f"unknown radius keys {unknown}; known: {known}")
        kind, p = obj.get("kind"), obj["params"]
        if kind == "quadratic":
            if any(type(p.get(k)) is not int for k in "abcd"):
                raise ValueError('quadratic radius params "a", "b", "c", "d" '
                                 'must be integers')
            decl = cls.quadratic(obj["gen_id"], p["a"], p["b"], p["c"],
                                 p["d"], obj.get("note", ""))
        elif kind == "rational":
            decl = cls.rational_stub(
                obj["gen_id"], _ratio(p.get("value"), "rational radius value"),
                obj.get("note", ""))
        else:
            raise ValueError(f"unknown radius kind {kind!r}")
        claim = obj.get("asserts_irrational", decl.asserts_irrational)
        if claim != decl.asserts_irrational:
            raise ValueError(
                f'radius {decl.gen_id} declares "asserts_irrational": '
                f"{str(claim).lower()}, but its {kind} params make it "
                f"{str(decl.asserts_irrational).lower()}")
        return decl

    def __repr__(self):
        return f"RadiusDecl({self.gen_id}, {self.kind}, {self.params})"


# ---------------------------------------------------------------------------
# Comparison


def _log_interval(base, exps, radii, depth: int):
    """Interval for base + sum exps[j] * log_q(1/r_j)."""
    lo = hi = base
    for e, decl in zip(exps, radii):
        if not e:
            continue
        llo, lhi = decl.interval(depth)
        if e > 0:
            lo, hi = lo + e * llo, hi + e * lhi
        else:
            lo, hi = lo + e * lhi, hi + e * llo
    return lo, hi


def _sqrt_sign(A, B, d):
    """Exact sign of A + B*sqrt(d) for rational A, B and an integer d > 0."""
    sa = (A > 0) - (A < 0)
    sb = (B > 0) - (B < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    # opposite signs: |A| against |B|*sqrt(d), squared
    lhs, rhs = A * A, B * B * d
    return sa if lhs > rhs else sb if lhs < rhs else 0


def _log_sign(base, exps, radii):
    """Sign of base + sum exps[j] * log_q(1/r_j): 1, -1, or 0 for
    undecided.

    Exact when every radius with a nonzero exponent is quadratic over one
    sqrt(d): with log_q(1/r_j) = (a_j + b_j*sqrt(d))/c_j, the sum times the
    lcm L of the c_j is A + B*sqrt(d) (ints when the exponents are,
    Fractions otherwise), and a 0 there is an exact vanishing.  Otherwise
    the intervals are refined from depth 8 to ``MAX_REFINE_DEPTH``, and 0
    means that none of them excluded zero."""
    A, B, L, d = base, 0, 1, None
    for e, decl in zip(exps, radii):
        if not e:
            continue
        parts = decl.quadratic_parts
        if parts is None or (d is not None and parts[0] != d):
            break
        d, a, b, c = parts
        if L % c:
            m = c // gcd(L, c)
            A, B, L = A * m, B * m, L * m
        m = L // c
        if a:
            A += e * a * m
        B += e * b * m
    else:
        return _sqrt_sign(A, B, d)
    depth = 8
    while depth <= MAX_REFINE_DEPTH:
        lo, hi = _log_interval(base, exps, radii, depth)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        depth *= 2
    return 0


def ln_compare(a: LogNorm, b: LogNorm, radii=()) -> Cmp:
    """Total comparison of two norm values.

    EQ only for structurally equal inputs.  A difference whose radius
    components cancel exactly is decided rationally, any other by
    ``_log_sign``; when that leaves it undecided (an exact vanishing, or a
    difference too small to separate from zero) the comparison gives up
    with ``UndecidableAtDepth``.
    """
    if a.is_zero:
        return Cmp.EQ if b.is_zero else Cmp.LT
    if b.is_zero:
        return Cmp.GT
    ra, rb = a.radius_exps, b.radius_exps
    if len(ra) != len(rb):
        raise ValueError("norms from different radius contexts")
    d_base = a.base_exp - b.base_exp
    if ra == rb:
        # purely rational difference in the logs; larger log = smaller norm
        return Cmp.GT if d_base < 0 else Cmp.LT if d_base else Cmp.EQ
    if len(radii) < len(ra):
        raise ValueError("missing radius declarations for comparison")
    sign = _log_sign(d_base, tuple(map(sub, ra, rb)), radii)
    if sign:
        # larger log = smaller norm
        return Cmp.LT if sign > 0 else Cmp.GT
    raise UndecidableAtDepth(
        f"norm comparison undecided after depth {MAX_REFINE_DEPTH}: "
        f"{a} vs {b}")


def ln_le(a, b, radii=()) -> bool:
    return ln_compare(a, b, radii) is not Cmp.GT


def ln_max(a: LogNorm, b: LogNorm, radii) -> LogNorm:
    """The larger of two norm values; ``a`` on a tie."""
    return a if ln_compare(a, b, radii) is not Cmp.LT else b


def ln_sorted(norms, radii):
    """Positions of ``norms`` in ascending order of value; never raises on
    a tie.  Norms whose order ``_log_sign`` leaves undecided (equal
    values, or a mixed-sqrt(d) difference too small to separate) keep
    their input order."""
    order = [i for i, n in enumerate(norms) if n.is_zero]
    rest = [i for i, n in enumerate(norms) if not n.is_zero]
    if any(len(norms[i].radius_exps) != len(radii) for i in rest):
        raise ValueError("norms from different radius contexts")

    def cmp(i, j):
        a, b = norms[i], norms[j]
        # larger log = smaller norm
        return -_log_sign(a.base_exp - b.base_exp,
                          tuple(map(sub, a.radius_exps, b.radius_exps)),
                          radii)
    return order + sorted(rest, key=cmp_to_key(cmp))


def norm_exceeds(a: LogNorm, radii, q: int, bound: Fraction) -> bool:
    """Certified check that value(a) > bound.

    Brackets the bound between powers of q, q^(m/D) <= bound <
    q^((m+1)/D), by exact integer comparisons, and asks ``ln_compare``
    whether a >= q^((m+1)/D) (True) or a <= q^(m/D) (False).  D doubles
    from 1 while a lies strictly between the two, up to 2^16.  A False
    return means "not certified": a <= bound, a too close to the bound
    at D = 2^16, or a comparison that gave up.
    """
    if a.is_zero:
        return False
    bound = Fraction(bound)
    if bound <= 0:
        return True
    num, den = bound.numerator, bound.denominator
    # rn/rd = bound^D / q^m, kept in [1, q); m starts from a float estimate
    m = int((log(num) - log(den)) / log(q))
    rn, rd = (num, den * q ** m) if m >= 0 else (num * q ** -m, den)
    while rn < rd:
        m, rn = m - 1, rn * q
    while rn >= q * rd:
        m, rd = m + 1, rd * q
    zeros = (Fraction(0),) * a.arity
    D = 1
    try:
        while True:
            if ln_compare(a, LogNorm._make(Fraction(-(m + 1), D), zeros),
                          radii) is not Cmp.LT:
                return True
            if D == 1 << 16 or ln_compare(
                    a, LogNorm._make(Fraction(-m, D), zeros),
                    radii) is not Cmp.GT:
                return False
            # at 2D the ratio bound^2D / q^2m = (rn/rd)^2 lies in [1, q^2)
            D, m, rn, rd = 2 * D, 2 * m, rn * rn, rd * rd
            if rn >= q * rd:
                m, rd = m + 1, rd * q
    except UndecidableAtDepth:
        return False


def log_q_interval(a: LogNorm, radii):
    """Interval [lo, hi] for log_q(value) = -(e0 + sum e_j L_j), at the
    fixed refinement depth 48 (artifacts print it)."""
    lo, hi = _log_interval(a.base_exp, a.radius_exps, radii, 48)
    return -hi, -lo
