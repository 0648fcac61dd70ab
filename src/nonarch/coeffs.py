"""Exact coefficient fields for Laurent-series fields.

Two backends live here:

* ``GF`` -- the finite field F_{p^d}, with elements stored as little-endian
  coefficient tuples over F_p (d = 1 degenerates to plain residues).
* ``MPoly`` / ``RatFun`` -- multivariate polynomials and reduced rational
  functions over F_p in variables u1..uN, kept in a canonical form so that
  equality is literal comparison; ``RatFunField`` is the field they form.

``GF`` and ``RatFunField`` are the coefficient-field protocol that Laurent
scalars compute on: ``zero``, ``one``, ``from_int`` (the ring map from Z),
``is_zero``, ``add``, ``neg``, ``mul``, ``inv``, ``series_mul`` (the
truncated product of two unit series {offset: element}), ``nth_roots``,
``to_str`` and ``atomic_str``.  Only ``GF`` has ``char_root``: p-th power
splits run over F_q((t)) alone.  Elements are canonical, so equal values
have equal representations.  ``series_axpy`` and
``schoolbook_series_mul`` compute on unit series over any of them, one
``mul`` per term pair; ``GF.series_mul`` packs dense products into one
big-integer product instead (Kronecker substitution).

The lowest layer also holds the shared kernels of exact arithmetic over Z,
Q and F_p: ``poly_axpy`` (out += c * b on {exponent: coefficient} dicts)
and ``poly_mul``, which ``MPoly``, the relation systems of ``linalg`` and
``derivlab`` and the integer powers of p-adic series run on, and
``power``, the one square-and-multiply loop.
"""

from __future__ import annotations

import struct
import sys
from functools import lru_cache
from operator import add

from .errors import DivisionByZero, NonarchError


# The first 13 primes.  No composite below PRIME_TEST_BOUND is a strong
# pseudoprime to all of them (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86 (2017)), so Miller-Rabin on these
# bases decides primality exactly there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality test: deterministic Miller-Rabin on the first 13
    prime bases.  A number from PRIME_TEST_BOUND (about 3.3e24) up that
    no base shows composite raises NonarchError: it cannot be decided."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= PRIME_TEST_BOUND:
        raise NonarchError(f"cannot decide whether {n} is prime: the "
                           "primality test is exact below 3.3e24")
    return True


# ---------------------------------------------------------------------------
# Shared kernels: sparse polynomials {exponent: coefficient} whose
# coefficients are ints or Fractions (p falsy: over Z or Q) or residues mod
# p, and powers in any ring


def poly_axpy(out, c, b, p):
    """out += c * b in place, and return out; sums that vanish are
    dropped."""
    for k, v in b.items():
        s = out.get(k, 0) + c * v
        if p:
            s %= p
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def poly_mul(a, b, p):
    """Product of two polynomials with exponent tuples.

    One-variable operands run the same loop on int exponents, and the
    keys are wrapped back into 1-tuples at the end: the items come out in
    the same order (a key whose sum vanishes is popped, and one that
    comes back is reinserted at the end), but no tuple is built or
    hashed per term pair."""
    if len(next(iter(a), ())) == 1 == len(next(iter(b), ())):
        bs = [(e, y) for (e,), y in b.items()]
        out = {}
        get, pop = out.get, out.pop
        for (e1,), x in a.items():
            for e2, y in bs:
                e = e1 + e2
                s = get(e, 0) + x * y
                if p:
                    s %= p
                if s:
                    out[e] = s
                else:
                    pop(e, None)
        return {(e,): s for e, s in out.items()}
    out = {}
    for e1, x in a.items():
        for e2, y in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + x * y
            if p:
                s %= p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def power(x, k, mul, one):
    """x^k for k >= 0 by square-and-multiply from the low bit, through
    ``mul(a, b)`` with identity ``one``; x is not squared after the top
    bit."""
    out = one
    while k:
        if k & 1:
            out = mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return out


# ---------------------------------------------------------------------------
# Unit series {offset: nonzero element} over a coefficient field ``dom``


def series_axpy(out, c, shift, b, dom, limit):
    """out += c * t^shift * b in place, and return out.

    c None means unscaled.  Sums that vanish are dropped, and exponents
    >= limit are skipped (limit None: no truncation).  Not poly_axpy:
    the coefficients are domain elements, and the sum truncates.
    """
    add, mul, is_zero = dom.add, dom.mul, dom.is_zero
    for j, y in b.items():
        k = j + shift
        if limit is not None and k >= limit:
            continue
        if c is not None:
            y = mul(c, y)
        acc = out.get(k)
        if acc is not None:
            y = add(acc, y)
            if is_zero(y):
                del out[k]
                continue
        out[k] = y
    return out


def schoolbook_series_mul(a, b, dom, limit):
    """a * b with offsets >= limit dropped: one series_axpy per term of a,
    so one ``dom.mul`` per term pair."""
    out = {}
    for i, x in a.items():
        if limit is None or i < limit:
            series_axpy(out, x, i, b, dom, limit)
    return out


def _below(a, limit):
    """The terms of a at offsets below limit."""
    if not a or max(a) < limit:
        return a
    return {k: c for k, c in a.items() if k < limit}


# ---------------------------------------------------------------------------
# GF(p^d)


def _vec_add(a, b, p):
    n = max(len(a), len(b))
    a = a + (0,) * (n - len(a))
    b = b + (0,) * (n - len(b))
    return tuple((x + y) % p for x, y in zip(a, b))


def _vec_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_mulmod(a, b, modulus, p):
    # not poly_mul: a dense GF product, reduced by the monic degree-d modulus
    d = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1 if a and b else 0)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    # reduce
    for k in range(len(out) - 1, d - 1, -1):
        c = out[k]
        if c == 0:
            continue
        out[k] = 0
        for j in range(d + 1):
            out[k - d + j] = (out[k - d + j] - c * modulus[j]) % p
    return tuple(out[:d]) if out else ()


def _poly_pow_mod(a, e, modulus, p):
    return power(a, e, lambda x, y: _poly_mulmod(x, y, modulus, p), (1,))


def _is_irreducible(poly, p):
    """Rabin's test for a monic little-endian poly of degree d >= 2 over
    F_p: x^(p^d) = x mod poly, and x^(p^(d/l)) - x is prime to poly for
    every prime l | d."""
    d = len(poly) - 1
    x = (0, 1)
    if _vec_trim(_poly_pow_mod(x, p ** d, poly, p)) != x:
        return False
    f = MPoly(p, 1, {(i,): c for i, c in enumerate(poly)})
    for l in range(2, d + 1):
        if d % l == 0 and is_prime(l):
            sub = _poly_pow_mod(x, p ** (d // l), poly, p)
            diff = MPoly(p, 1, {(i,): c for i, c in enumerate(sub)})
            if not mpoly_gcd(diff - MPoly.var(p, 1, 0), f).is_one():
                return False
    return True


@lru_cache(maxsize=None)
def _find_irreducible(p: int, d: int):
    """Smallest monic irreducible of degree d over F_p, little-endian."""
    if d == 1:
        return (0, 1)
    # constant..x^{d-1} coefficients are the base-p digits of code; x
    # divides poly when its constant term is 0
    for code in range(p ** d):
        poly = tuple(code // p ** i % p for i in range(d)) + (1,)
        if poly[0] and _is_irreducible(poly, p):
            return poly
    raise RuntimeError("no irreducible polynomial found")  # unreachable


# native unsigned formats that read w-byte little-endian slots in place
_SLOT_FORMATS = {1: "B"}
if sys.byteorder == "little":
    _SLOT_FORMATS.update({struct.calcsize(f): f for f in "HIQ"})


def _slot_width(bound):
    """Bytes per slot for slot values up to bound: rounded up to a native
    format width where one exists."""
    need = max(1, (bound.bit_length() + 7) // 8)
    return min((w for w in _SLOT_FORMATS if w >= need), default=need)


def _pack(a, lo, stride, w):
    """The series a as one integer: component j of the term at offset k in
    the w-byte slot (k - lo) * stride + j, little-endian."""
    n = (max(a) - lo + 1) * stride
    fmt = _SLOT_FORMATS.get(w)
    buf = bytearray(n * w)
    slots = memoryview(buf).cast(fmt) if fmt else [0] * n
    for k, c in a.items():
        base = (k - lo) * stride
        for j, x in enumerate(c):
            slots[base + j] = x
    if not fmt:
        buf = b"".join(x.to_bytes(w, "little") for x in slots)
    return int.from_bytes(buf, "little")


class GF:
    """Arithmetic for F_{p^d}.  Elements are little-endian tuples over F_p.

    ``elements`` and ``nth_roots`` list in the order of the integer
    encoding sum(c_i * p^i).
    """

    def __init__(self, p: int, d: int = 1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if d < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.d = d
        self.order = p ** d
        self.modulus = _find_irreducible(p, d)
        self.zero = ()
        self.one = (1,)
        # the sparsity crossover of series_mul, measured: over F_p a packed
        # product pays down to about 1 term pair per 16 offsets, over an
        # extension, whose slots are reduced by the modulus in Python, 1 per 2
        self._offsets_per_pair = 16 if d == 1 else 2

    def from_int(self, n: int):
        """Image of n under the ring map Z -> F_{p^d} (in the prime field)."""
        n %= self.p
        return (n,) if n else ()

    def generator(self):
        """The class w of x generating F_{p^d} over F_p."""
        if self.d == 1:
            raise ValueError("prime fields have no extension generator")
        return (0, 1)

    def is_zero(self, a) -> bool:
        return not a

    def add(self, a, b):
        return _vec_trim(_vec_add(a, b, self.p))

    def neg(self, a):
        return tuple((-c) % self.p for c in a)

    def mul(self, a, b):
        if not a or not b:
            return ()
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # a prime-field factor scales b componentwise; b's top
            # component stays nonzero, as p is prime
            x, p = a[0], self.p
            if len(b) == 1:
                return (x * b[0] % p,)
            return tuple([x * y % p for y in b])
        return _vec_trim(_poly_mulmod(a, b, self.modulus, self.p))

    def series_mul(self, a, b, limit):
        """a * b for unit series {offset: element}, offsets >= limit
        dropped (limit None: none).

        A single-term operand is a scaling: one ``mul`` per term of the
        other operand, in its order.  Otherwise the product is packed into
        one big-integer product (``_kronecker_mul``) unless the operands
        are too sparse for their spans: more than ``_offsets_per_pair``
        offsets in the two spans per term pair.  Those take the schoolbook
        loop.
        """
        if len(a) == 1 or len(b) == 1:
            if len(a) != 1:
                a, b = b, a
            (i, x), = a.items()
            mul, out = self.mul, {}
            for j, y in b.items():
                if limit is None or i + j < limit:
                    out[i + j] = mul(x, y)
            return out
        if limit is not None:
            square = a is b
            a = _below(a, limit)
            b = a if square else _below(b, limit)
        na, nb = len(a), len(b)
        if na < 2 or nb < 2 or na * nb * self._offsets_per_pair \
                < max(a) - min(a) + max(b) - min(b) + 2:
            return schoolbook_series_mul(a, b, self, limit)
        return self._kronecker_mul(a, b, limit)

    def _kronecker_mul(self, a, b, limit):
        """series_mul by Kronecker substitution: each term takes 2d - 1
        slots, so the w-polynomials of a product fit in one stride, and
        each slot is wide enough for min(len a, len b) * d products of two
        components; one integer product (a square when a is b), then every
        output slot is reduced mod p and by the modulus."""
        p, d = self.p, self.d
        stride = 2 * d - 1
        w = _slot_width(min(len(a), len(b)) * d * (p - 1) ** 2)
        lo_a, lo_b = min(a), min(b)
        packed = _pack(a, lo_a, stride, w)
        prod = packed * (packed if a is b else _pack(b, lo_b, stride, w))
        lo = lo_a + lo_b
        span = max(a) - lo_a + max(b) - lo_b + 1
        raw = prod.to_bytes(span * stride * w, "little")
        nslots = stride * (span if limit is None
                           else max(0, min(span, limit - lo)))
        fmt = _SLOT_FORMATS.get(w)
        if fmt:
            slots = memoryview(raw).cast(fmt)[:nslots].tolist()
        else:
            slots = [int.from_bytes(raw[i:i + w], "little")
                     for i in range(0, nslots * w, w)]
        out = {}
        if d == 1:
            for k, v in enumerate(slots):
                if v and (r := v % p):
                    out[k + lo] = (r,)
            return out
        # w^j = -(m_0 + ... + m_{d-1} w^{d-1}) * w^(j-d) from the top down
        tops = range(stride - 1, d - 1, -1)
        m = tuple(enumerate(self.modulus[:d]))
        for base in range(0, nslots, stride):
            v = slots[base:base + stride]
            if not any(v):
                continue
            for j in tops:
                c = v[j] % p
                if c:
                    for i, mi in m:
                        v[j - d + i] -= c * mi
            elem = _vec_trim(tuple(x % p for x in v[:d]))
            if elem:
                out[base // stride + lo] = elem
        return out

    def inv(self, a):
        if not a:
            raise DivisionByZero("inverse of zero in GF")
        return _vec_trim(_poly_pow_mod(a, self.order - 2, self.modulus, self.p))

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if not a:
            return () if e else (1,)
        return _vec_trim(_poly_pow_mod(a, e, self.modulus, self.p))

    def elements(self):
        """Every element, in the order of the integer encoding."""
        for n in range(self.order):
            yield _vec_trim(tuple(n // self.p ** i % self.p
                                  for i in range(self.d)))

    def char_root(self, a):
        """The unique x with x^p = a (p the characteristic)."""
        # x = a^(order/p): (a^(order/p))^p = a^order = a
        return self.pow(a, self.order // self.p)

    def nth_roots(self, a, n: int):
        """All x with x^n = a, in the order of the integer encoding."""
        return [x for x in self.elements() if self.pow(x, n) == a]

    def to_str(self, a) -> str:
        if not a:
            return "0"
        parts = []
        for i in range(len(a) - 1, -1, -1):
            c = a[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                w = "w" if i == 1 else f"w^{i}"
                parts.append(w if c == 1 else f"{c}*{w}")
        return " + ".join(parts)

    def atomic_str(self, a) -> bool:
        """True when to_str(a) needs no parentheses as a factor."""
        return sum(1 for c in a if c) <= 1


# ---------------------------------------------------------------------------
# Multivariate polynomials over F_p (coefficients of the rational-function
# Laurent field).  Exponent keys are tuples of fixed length nvars.


class MPoly:
    """Polynomial in F_p[u1..uN]; terms stored as {exponent tuple: residue}."""

    __slots__ = ("p", "nvars", "terms")

    def __init__(self, p, nvars, terms=None):
        self.p = p
        self.nvars = nvars
        self.terms = {tuple(e): r for e, c in (terms or {}).items()
                      if (r := c % p)}

    # -- constructors

    @classmethod
    def const(cls, p, nvars, c):
        return cls(p, nvars, {(0,) * nvars: c % p})

    @classmethod
    def var(cls, p, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(p, nvars, {tuple(e): 1})

    # -- predicates

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0,) * self.nvars: 1}

    def is_const(self):
        return not self.terms or set(self.terms) == {(0,) * self.nvars}

    def const_value(self):
        return self.terms.get((0,) * self.nvars, 0)

    def degree_in(self, i):
        return max((e[i] for e in self.terms), default=-1)

    # -- ring operations

    def _check(self, other):
        if self.p != other.p or self.nvars != other.nvars:
            raise ValueError("mixed polynomial rings")

    def __add__(self, other):
        self._check(other)
        return MPoly(self.p, self.nvars,
                     poly_axpy(dict(self.terms), 1, other.terms, self.p))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return MPoly(self.p, self.nvars,
                     poly_mul(self.terms, other.terms, self.p))

    def scale(self, c):
        return MPoly(self.p, self.nvars, poly_axpy({}, c, self.terms, self.p))

    def __eq__(self, other):
        return (isinstance(other, MPoly) and self.p == other.p
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.p, self.nvars, tuple(sorted(self.terms.items()))))

    # -- canonical display

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            if c != 1 or not any(e):
                factors.append(str(c))
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"u{i + 1}")
                elif k > 1:
                    factors.append(f"u{i + 1}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    __repr__ = __str__

    # -- leading data under lex order (used for canonical normalisation)

    def lead(self):
        e = max(self.terms)
        return e, self.terms[e]

    # -- univariate view in the highest active variable, for gcd recursion

    def _as_univar(self, i):
        """Dict degree -> MPoly in the remaining exponent positions."""
        out = {}
        for e, c in self.terms.items():
            out.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
        return {d: MPoly(self.p, self.nvars, t) for d, t in out.items()}

    @staticmethod
    def _from_univar(p, nvars, i, coeffs):
        terms = {}
        for d, poly in coeffs.items():
            for e, c in poly.terms.items():
                terms[e[:i] + (e[i] + d,) + e[i + 1:]] = c
        return MPoly(p, nvars, terms)


def _active_var(a: MPoly, b: MPoly):
    for i in reversed(range(a.nvars)):
        if a.degree_in(i) > 0 or b.degree_in(i) > 0:
            return i
    return None


def mpoly_gcd(a: MPoly, b: MPoly) -> MPoly:
    """Gcd in F_p[u...], monic in the lex-leading coefficient."""
    if a.is_zero():
        return _monicize(b)
    if b.is_zero():
        return _monicize(a)
    i = _active_var(a, b)
    if i is None:
        return MPoly.const(a.p, a.nvars, 1)
    ua, ub = a._as_univar(i), b._as_univar(i)
    ca = _content(a.p, a.nvars, ua)
    cb = _content(b.p, b.nvars, ub)
    pa = _exact_div_coeffs(ua, ca)
    pb = _exact_div_coeffs(ub, cb)
    g = _primitive_gcd_univar(a.p, a.nvars, i, pa, pb)
    cg = mpoly_gcd(ca, cb)
    return _monicize(MPoly._from_univar(a.p, a.nvars, i, g) * cg)


def _content(p, nvars, coeffs):
    g = MPoly(p, nvars)
    for poly in coeffs.values():
        g = mpoly_gcd(g, poly)
        if g.is_one():
            break
    return g if not g.is_zero() else MPoly.const(p, nvars, 1)


def _exact_div_coeffs(coeffs, divisor):
    return {d: mpoly_exact_div(poly, divisor) for d, poly in coeffs.items()}


def _primitive_gcd_univar(p, nvars, i, ua, ub):
    """Primitive gcd of two primitive univariate-in-var-i polys."""
    A, B = dict(ua), dict(ub)
    if max(A, default=-1) < max(B, default=-1):
        A, B = B, A
    while B:
        R = _pseudo_rem(p, nvars, A, B)
        if not R:
            break
        # make remainder primitive again
        cr = _content(p, nvars, R)
        R = _exact_div_coeffs(R, cr)
        A, B = B, R
    return B or A


def _pseudo_rem(p, nvars, A, B):
    """Pseudo-remainder of A by B (univariate views, dict deg -> MPoly)."""
    db = max(B)
    lb = B[db]
    R = dict(A)
    while R and max(R) >= db:
        dr = max(R)
        lr = R[dr]
        # R := lb*R - lr*x^(dr-db)*B
        newR = {d: c * lb for d, c in R.items()}
        for d, c in B.items():
            t = c * lr
            tgt = d + dr - db
            newR[tgt] = (newR.get(tgt, MPoly(p, nvars))) - t
        R = {d: c for d, c in newR.items() if not c.is_zero()}
    return R


def mpoly_exact_div(a: MPoly, b: MPoly) -> MPoly:
    """Exact division a / b; raises if the division leaves a remainder."""
    if b.is_zero():
        raise DivisionByZero("polynomial division by zero")
    if a.is_zero():
        return MPoly(a.p, a.nvars)
    if b.is_const():
        inv = pow(b.const_value(), b.p - 2, b.p)
        return a.scale(inv)
    p = a.p
    q, r = {}, dict(a.terms)
    be, bc = b.lead()
    bcinv = pow(bc, p - 2, p)
    while r:
        # the lex-leading term of r falls at every step, so ee is new
        re = max(r)
        ee = tuple(x - y for x, y in zip(re, be))
        if any(x < 0 for x in ee):
            raise ValueError("inexact polynomial division")
        q[ee] = c = r[re] * bcinv % p
        poly_axpy(r, -c, poly_mul({ee: 1}, b.terms, p), p)
    return MPoly(p, a.nvars, q)


def _monicize(a: MPoly) -> MPoly:
    if a.is_zero():
        return a
    _, c = a.lead()
    return a.scale(pow(c, a.p - 2, a.p))


class RatFun:
    """Reduced rational function over F_p[u1..uN].

    Canonical form: gcd(num, den) = 1 and den is lex-monic, so equality is
    structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly):
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        # a constant part (zero included) already makes the gcd 1
        if not (num.is_const() or den.is_const()):
            g = mpoly_gcd(num, den)
            if not g.is_one():
                num = mpoly_exact_div(num, g)
                den = mpoly_exact_div(den, g)
        if num.is_zero():
            den = MPoly.const(den.p, den.nvars, 1)
        else:
            _, lc = den.lead()
            if lc != 1:
                inv = pow(lc, den.p - 2, den.p)
                num = num.scale(inv)
                den = den.scale(inv)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, p, nvars, c):
        return cls(MPoly.const(p, nvars, c), MPoly.const(p, nvars, 1))

    @classmethod
    def var(cls, p, nvars, i):
        return cls(MPoly.var(p, nvars, i), MPoly.const(p, nvars, 1))

    @classmethod
    def from_poly(cls, poly: MPoly):
        return cls(poly, MPoly.const(poly.p, poly.nvars, 1))

    def is_zero(self):
        return self.num.is_zero()

    def is_poly(self):
        return self.den.is_one()

    def __add__(self, other):
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __mul__(self, other):
        return RatFun(self.num * other.num, self.den * other.den)

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero rational function")
        return RatFun(self.den, self.num)

    def __eq__(self, other):
        return (isinstance(other, RatFun) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.is_poly():
            return str(self.num)
        ns, ds = str(self.num), str(self.den)
        if " " in ns:
            ns = f"({ns})"
        if " " in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    __repr__ = __str__


class RatFunField:
    """The field F_p(u1..uN) of ``RatFun`` elements, with the protocol of
    ``GF`` but ``char_root``, plus ``var``."""

    def __init__(self, p, nvars):
        self.p = p
        self.nvars = nvars
        self.zero = RatFun.const(p, nvars, 0)
        self.one = RatFun.const(p, nvars, 1)

    def from_int(self, n):
        return RatFun.const(self.p, self.nvars, n)

    def var(self, i):
        return RatFun.var(self.p, self.nvars, i)

    def is_zero(self, a):
        return a.is_zero()

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def series_mul(self, a, b, limit):
        return schoolbook_series_mul(a, b, self, limit)

    def inv(self, a):
        return a.inv()

    def nth_roots(self, a, n):
        """Some x with x^n = a: one root for a monomial c*u^(n*e) with c
        an n-th power residue, [] otherwise.  That covers the residues
        other than 1 of the units that root towers start from."""
        if a.is_poly() and len(a.num.terms) == 1:
            (e, c), = a.num.terms.items()
            if all(k % n == 0 for k in e):
                roots = [x for x in range(1, self.p)
                         if pow(x, n, self.p) == c % self.p]
                if roots:
                    mono = MPoly(self.p, self.nvars,
                                 {tuple(k // n for k in e): min(roots)})
                    return [RatFun.from_poly(mono)]
        return []

    def to_str(self, a):
        return str(a)

    def atomic_str(self, a):
        return a.is_poly() and len(a.num.terms) <= 1
