"""The shared kernels of ``coeffs`` against the loops they replaced.

Each reference below is a loop that ``poly_axpy``, ``poly_mul``,
``power``, the gcd of the irreducibility test, ``GF.series_mul``, the
Newton inverse of unit series or the Miller-Rabin ``is_prime`` took over, kept verbatim (up to its name) as
the oracle; the inputs are drawn from fixed seeds and include empty, zero
and fully cancelling operands.  The p-adic valuation ``fields._int_val``
and the one-variable ``poly_mul`` loop are checked the same way, against
the versions they replaced, and so is the ``RatFun`` constructor against
the old one that took a gcd of every pair.  Series sums and products keep
the per-collision ``_accumulate`` loop as their oracle, Laurent scalar sums
the two-pass sum, and ``RatFun`` sums and products the general formula
with its denominator products.
"""

import random
import time
from fractions import Fraction
from operator import add

import pytest

from nonarch import coeffs
from nonarch.coeffs import (GF, PRIME_TEST_BOUND, MPoly, RatFunField,
                            _find_irreducible, _is_irreducible, _poly_mulmod,
                            RatFun, _vec_trim, is_prime, mpoly_exact_div,
                            mpoly_gcd, poly_axpy, poly_mul, power,
                            schoolbook_series_mul, series_axpy)
from nonarch.errors import NonarchError, PrecisionExhausted
from nonarch.fields import (FQ_LAURENT, PADIC, RATFUN_LAURENT, FieldSpec,
                            Scalar, _int_val, _pmin, _su_div, _su_inverse)
from nonarch.lognorm import LogNorm, RadiusDecl, ln_max, ln_mul
from nonarch.series import LAURENT, TateSeries

PRIMES = (2, 3, 5, (1 << 61) - 1)
SEEDS = range(30)


# -- the deleted loops --------------------------------------------------


def ref_axpy(vec, c, other, p):
    """linalg._axpy: vec -= c * other, in place, dropping zeros."""
    for k, v in other.items():
        nv = vec.get(k, 0) - c * v
        if p:
            nv %= p
        if nv:
            vec[k] = nv
        else:
            vec.pop(k, None)


def ref_scaled(vec, c, p):
    """linalg._scaled."""
    return {k: v * c % p if p else v * c for k, v in vec.items()}


def ref_int_support_mul(a, b):
    """fields._int_support_mul."""
    out = {}
    for e1, x in a.items():
        for e2, y in b.items():
            e = tuple(x1 + x2 for x1, x2 in zip(e1, e2))
            acc = out.get(e)
            if acc is None:
                out[e] = x * y
            elif acc := acc + x * y:
                out[e] = acc
            else:
                del out[e]
    return out


def ref_poly_mul1(a, b, char):
    """derivlab._poly_mul1, on int exponents."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = i + j
            v = out.get(k, 0) + x * y
            if char:
                v %= char
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def ref_mpoly_mul(a, b, p):
    """The loop of the old MPoly.__mul__."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = (out.get(e, 0) + c1 * c2) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def ref_poly_mul_tuples(a, b, p):
    """poly_mul before one-variable operands took int exponents."""
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


def ref_int_val(n, q):
    """fields._int_val before the reduction mod q^64."""
    powers = [q]
    while n % (sq := powers[-1] * powers[-1]) == 0:
        powers.append(sq)
    v = 0
    for i in range(len(powers) - 1, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


def ref_power(x, k, mul, one):
    """The loop of the old Scalar.pow_int and coeffs._poly_pow_mod."""
    out = one
    while k:
        if k & 1:
            out = mul(out, x)
        x = mul(x, x)
        k >>= 1
    return out


def ref_poly_gcd_deg(a, b, p):
    """coeffs._poly_gcd_deg: degree of gcd(a, b) of little-endian lists."""
    a, b = list(a), list(b)
    for v in (a, b):
        while v and v[-1] == 0:
            v.pop()
    while b:
        inv = pow(b[-1], p - 2, p)
        b = [(c * inv) % p for c in b]
        while len(a) >= len(b) and a:
            if a[-1]:
                c = a[-1]
                off = len(a) - len(b)
                for j, y in enumerate(b):
                    a[off + j] = (a[off + j] - c * y) % p
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1 if a else -1


def ref_ratfun(num, den):
    """(num, den) of the old RatFun constructor, which took the gcd of
    every nonzero numerator and denominator."""
    if not num.is_zero():
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
    return num, den


# -- inputs -----------------------------------------------------------------


def rand_coeff(rng, p, fractions):
    if fractions:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    c = rng.randint(-9, 9)
    return c % p if p else c


def rand_poly(rng, p, fractions=False, arity=1, size=None):
    """Random {exponent tuple: coefficient}, zero coefficients dropped."""
    size = rng.randint(0, 6) if size is None else size
    out = {}
    for _ in range(size):
        e = tuple(rng.randint(0, 4) for _ in range(arity))
        c = rand_coeff(rng, p, fractions)
        if c:
            out[e] = c
    return out


def rings():
    """(p, fractions) of every coefficient ring under test."""
    return [(0, False), (None, True)] + [(p, False) for p in PRIMES]


RING_IDS = ["Z", "Q"] + [f"F{p}" for p in PRIMES]


# -- poly_axpy ----------------------------------------------------------------


@pytest.mark.parametrize("p,fractions", rings(), ids=RING_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_poly_axpy_matches_axpy(p, fractions, seed):
    rng = random.Random(seed)
    out, b = rand_poly(rng, p, fractions), rand_poly(rng, p, fractions)
    c = rand_coeff(rng, p, fractions)
    want = dict(out)
    ref_axpy(want, -c, b, p)
    got = dict(out)
    assert poly_axpy(got, c, b, p) is got
    assert got == want
    assert poly_axpy({}, c, b, p) == \
        {k: v for k, v in ref_scaled(b, c, p).items() if v}


@pytest.mark.parametrize("p,fractions", rings(), ids=RING_IDS)
@pytest.mark.parametrize("seed", range(10))
def test_poly_axpy_cancels_and_drops_zeros(p, fractions, seed):
    rng = random.Random(seed)
    b = rand_poly(rng, p, fractions, size=5) or {(0,): 1}
    c = rand_coeff(rng, p, fractions) or 1
    # out = -c * b cancels completely
    out = {k: (-c * v) % p if p else -c * v for k, v in b.items()}
    assert poly_axpy(out, c, b, p) == {}
    # half of it cancels, and nothing vanishing is stored
    half = dict(list(b.items())[::2])
    out = {k: (-c * v) % p if p else -c * v for k, v in half.items()}
    out[(9,)] = 1
    want = dict(out)
    ref_axpy(want, -c, b, p)
    assert poly_axpy(out, c, b, p) == want
    assert all(out.values())
    # empty operands and a zero scale
    assert poly_axpy({}, c, {}, p) == {}
    assert poly_axpy(dict(b), 0, b, p) == b
    assert poly_axpy({}, 0, b, p) == {}


def test_poly_axpy_reduces_mod_p():
    assert poly_axpy({(0,): 4}, 3, {(0,): 2, (1,): 5}, 7) == \
        {(0,): 3, (1,): 1}
    assert poly_axpy({(0,): 1}, 1, {(0,): 1}, 2) == {}
    big = (1 << 61) - 1
    assert poly_axpy({}, big - 1, {(0,): big - 1}, big) == {(0,): 1}


# -- poly_mul --------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_poly_mul_over_z_matches_int_support_mul(seed):
    rng = random.Random(seed)
    arity = rng.randint(1, 3)
    a = rand_poly(rng, 0, arity=arity)
    b = rand_poly(rng, 0, arity=arity)
    assert poly_mul(a, b, 0) == ref_int_support_mul(a, b)
    assert poly_mul(a, b, None) == ref_int_support_mul(a, b)


@pytest.mark.parametrize("p,fractions", rings(), ids=RING_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_poly_mul_matches_poly_mul1(p, fractions, seed):
    rng = random.Random(seed)
    a, b = rand_poly(rng, p, fractions), rand_poly(rng, p, fractions)
    flat = ref_poly_mul1({e: c for (e,), c in a.items()},
                         {e: c for (e,), c in b.items()}, p)
    assert poly_mul(a, b, p) == {(k,): v for k, v in flat.items()}


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_poly_mul_mod_p_matches_mpoly_loop(p, seed):
    rng = random.Random(seed)
    arity = rng.randint(1, 3)
    a = rand_poly(rng, p, arity=arity)
    b = rand_poly(rng, p, arity=arity)
    want = ref_mpoly_mul(a, b, p)
    assert poly_mul(a, b, p) == want
    assert (MPoly(p, arity, a) * MPoly(p, arity, b)).terms == want


@pytest.mark.parametrize("p,fractions", rings(), ids=RING_IDS)
def test_poly_mul_empty_and_cancelling(p, fractions):
    one = {(0,): 1}
    assert poly_mul({}, one, p) == {} and poly_mul(one, {}, p) == {}
    # (1 + T)(1 - T) = 1 - T^2: the T terms cancel
    m1 = -1 % p if p else -1
    assert poly_mul({(0,): 1, (1,): 1}, {(0,): 1, (1,): m1}, p) == \
        {(0,): 1, (2,): m1}
    if fractions:
        assert poly_mul({(0,): Fraction(1, 2)}, {(0,): 2}, p) == {(0,): 1}


def test_poly_mul_reduces_mod_p():
    # (1 + T)^2 = 1 + T^2 over F_2; 3 * 3 = 2 over F_7
    assert poly_mul({(0,): 1, (1,): 1}, {(0,): 1, (1,): 1}, 2) == \
        {(0,): 1, (2,): 1}
    assert poly_mul({(1, 0): 3}, {(0, 2): 3}, 7) == {(1, 2): 2}


def rand_laurent_poly(rng, p, fractions, arity, size):
    """Random {exponent tuple: coefficient} with exponents in [-4, 4] and
    coefficients in [-3, 3]: few enough values that partial sums of a
    product vanish and come back."""
    out = {}
    for _ in range(size):
        e = tuple(rng.randint(-4, 4) for _ in range(arity))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if fractions \
            else rng.randint(-3, 3)
        if p:
            c %= p
        if c:
            out[e] = c
    return out


def _same_items(a, b, p):
    got, want = poly_mul(a, b, p), ref_poly_mul_tuples(a, b, p)
    assert list(got.items()) == list(want.items())
    return got


@pytest.mark.parametrize("p,fractions", rings(), ids=RING_IDS)
@pytest.mark.parametrize("arity", (1, 2, 3))
def test_poly_mul_keeps_the_tuple_loop_item_order(p, fractions, arity):
    rng = random.Random(f"{p}-{fractions}-{arity}")
    unsorted = 0
    for _ in range(200):
        a = rand_laurent_poly(rng, p, fractions, arity, rng.randint(0, 9))
        b = rand_laurent_poly(rng, p, fractions, arity, rng.randint(0, 9))
        got = _same_items(a, b, p)
        unsorted += list(got) != sorted(got)
    # the order pinned is not the sorted one
    assert unsorted > 20


def test_poly_mul_key_that_vanishes_and_comes_back():
    # (1 + x + x^2)(x - 1 + 1/x): x^1, x^0 and x^2 cancel on the way,
    # and x^1 arrives again after x^3
    f = {(0,): 1, (1,): 1, (2,): 1}
    g = {(1,): 1, (0,): -1, (-1,): 1}
    for p in (0, 5, (1 << 61) - 1):
        gp = {e: c % p for e, c in g.items()} if p else g
        assert list(_same_items(f, gp, p)) == [(-1,), (3,), (1,)]
    # (1 + 2x - 2x^2)^k: the x^2 sum of the square vanishes midway
    x = {(0,): 1, (1,): 2, (2,): -2}
    assert (2,) not in _same_items(x, x, 0)
    pw = x
    for _ in range(5):
        pw = _same_items(pw, x, 0)
    half = {(0,): Fraction(1, 2), (1,): Fraction(-1, 2)}
    assert _same_items(half, {(0,): 2, (1,): 2}, None) == \
        {(0,): 1, (2,): -1}


@pytest.mark.parametrize("p", (0, 7))
def test_poly_mul_of_empty_and_single_terms(p):
    one, t3 = {(0,): 1}, {(-3,): 5}
    two_var = {(1, 0): 3, (0, -2): 4}
    for a, b in ((one, {}), ({}, one), ({}, {}), (t3, t3), (t3, one),
                 ({(2,): 6, (-1,): 1}, t3), ({}, two_var), (two_var, {}),
                 (two_var, {(0, 0): 2}), (two_var, two_var)):
        _same_items(a, b, p)
    assert poly_mul(t3, t3, 7) == {(-6,): 4}


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("seed", range(10))
def test_exact_division_inverts_products(p, seed):
    rng = random.Random(seed)
    a = MPoly(p, 2, rand_poly(rng, p, arity=2))
    b = MPoly(p, 2, rand_poly(rng, p, arity=2, size=3) or {(1, 0): 1})
    assert mpoly_exact_div(a * b, b) == a
    # u1 * u2 + 1 has no factor u1
    with pytest.raises(ValueError, match="inexact"):
        mpoly_exact_div(MPoly(p, 2, {(1, 1): 1, (0, 0): 1}),
                        MPoly(p, 2, {(1, 0): 1}))


def _rand_part(rng, p, nvars, shape):
    """A random MPoly: zero, a constant (monic or not) or non-constant."""
    if shape == "zero":
        return MPoly(p, nvars, {})
    if shape in ("one", "scalar"):
        c = 1 if shape == "one" else rng.randint(2, p - 1)
        return MPoly.const(p, nvars, c)
    return MPoly(p, nvars, rand_poly(rng, p, arity=nvars, size=4)
                 or {(1,) + (0,) * (nvars - 1): 1})


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("nvars", (1, 2, 3))
def test_ratfun_skips_only_gcds_of_one(p, nvars):
    # the constructor takes a gcd only when neither part is constant
    rng = random.Random(10 * p + nvars)
    shapes = ["zero", "one", "poly"] + (["scalar"] if p > 2 else [])
    for _ in range(40):
        for ns in shapes:
            for ds in shapes[1:]:
                num = _rand_part(rng, p, nvars, ns)
                den = _rand_part(rng, p, nvars, ds)
                if ns == ds == "poly" and rng.random() < 0.5:
                    # a common factor to cancel
                    g = _rand_part(rng, p, nvars, "poly")
                    num, den = num * g, den * g
                if den.is_zero():
                    continue
                r = RatFun(num, den)
                assert (r.num, r.den) == ref_ratfun(num, den)


# -- p-adic valuations of integers -----------------------------------------

INT_VAL_PRIMES = (2, 3, 5, (1 << 31) - 1, (1 << 61) - 1)


def _unit(rng, bits, q):
    """A random integer of the given width that q does not divide."""
    u = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    return u + 2 if u % q == 0 else u


@pytest.mark.parametrize("q", INT_VAL_PRIMES)
def test_int_val_matches_old_bracketing(q):
    rng = random.Random(q)
    edge = q.bit_length() << 6              # where the reduction starts
    checked = 0
    for v in (0, 1, 63, 64, 65, 127, 128, 129, 500, 8000):
        qv = q ** v
        for width in (10, edge - 1, edge, edge + 1, 2000, 12000, 50000):
            bits = width - qv.bit_length() + 1
            if bits < 2:
                continue
            for sign in (1, -1):
                n = sign * _unit(rng, bits, q) * qv
                assert _int_val(n, q) == ref_int_val(n, q) == v
                checked += 1
        # n = q^v itself, with no unit above it
        if qv.bit_length() <= 50000:
            assert _int_val(qv, q) == ref_int_val(qv, q) == v
    assert checked >= 60


def test_int_val_at_the_reduction_threshold():
    # q^64 and its neighbours: around the width where n % q^64 starts
    for q in INT_VAL_PRIMES:
        q64 = q ** 64
        for n in (q64, -q64, q64 * (q + 1), q64 * q, q64 // q,
                  q64 // q * (q + 1), q64 * q64, (q64 + q) * q):
            assert _int_val(n, q) == ref_int_val(n, q)


# -- power -------------------------------------------------------------------


class Counting:
    """An associative product that counts its calls."""

    def __init__(self, mul):
        self.mul, self.calls = mul, 0

    def __call__(self, a, b):
        self.calls += 1
        return self.mul(a, b)


@pytest.mark.parametrize("k", range(71))
def test_power_matches_repeated_products(k):
    # a product mod 2^61 - 1, a polynomial product, and a product that
    # records the exponent of its result, which is the product count
    big = (1 << 61) - 1
    mul = Counting(lambda a, b: a * b % big)
    assert power(3, k, mul, 1) == pow(3, k, big)
    # one multiplication per set bit, one squaring per bit below the top
    assert mul.calls == (bin(k).count("1") + k.bit_length() - 1 if k else 0)
    poly = {(0,): 1, (1,): 2}
    want = {(0,): 1}
    for _ in range(k):
        want = poly_mul(want, poly, 5)
    assert power(poly, k, lambda a, b: poly_mul(a, b, 5), {(0,): 1}) == want
    assert power(poly, k, lambda a, b: poly_mul(a, b, 5), {(0,): 1}) == \
        ref_power(poly, k, lambda a, b: poly_mul(a, b, 5), {(0,): 1})


@pytest.mark.parametrize("p,d", [(2, 3), (3, 2), (5, 2), (2, 6)])
def test_power_in_gf_matches_old_loop(p, d):
    modulus = _find_irreducible(p, d)
    rng = random.Random(p * 10 + d)

    def mul(a, b):
        return _poly_mulmod(a, b, modulus, p)

    for _ in range(10):
        a = tuple(rng.randrange(p) for _ in range(d))
        k = rng.randrange(200)
        assert power(a, k, mul, (1,)) == ref_power(a, k, mul, (1,))


# -- irreducibility ---------------------------------------------------------


def ref_is_irreducible(poly, p):
    """The old _is_irreducible, with the dense gcd."""
    d = len(poly) - 1

    def pw(a, e):
        return ref_power(a, e, lambda x, y: _poly_mulmod(x, y, poly, p),
                         (1,))

    def trim(a):
        a = list(a)
        while a and a[-1] == 0:
            a.pop()
        return tuple(a)

    if trim(pw((0, 1), p ** d)) != (0, 1):
        return False
    for l in range(2, d + 1):
        if d % l == 0 and all(l % f for f in range(2, l)):
            sub = pw((0, 1), p ** (d // l)) + (0,) * d
            diff = trim((a - b) % p for a, b in zip(sub, (0, 1) + (0,) * d))
            if not diff or ref_poly_gcd_deg(diff, poly, p) != 0:
                return False
    return True


def divides(g, f, p):
    """True when monic g divides f over F_p (little-endian lists)."""
    f = list(f)
    for k in range(len(f) - len(g), -1, -1):
        c = f[k + len(g) - 1]
        for j, y in enumerate(g):
            f[k + j] = (f[k + j] - c * y) % p
    return not any(f)


def monic(p, d):
    for code in range(p ** d):
        yield tuple(code // p ** i % p for i in range(d)) + (1,)


def trial_division_irreducible(poly, p):
    d = len(poly) - 1
    return not any(divides(g, poly, p) for e in range(1, d // 2 + 1)
                   for g in monic(p, e))


@pytest.mark.parametrize("p,dmax", [(2, 6), (3, 4), (5, 4)])
def test_irreducibility_matches_trial_division(p, dmax):
    for d in range(2, dmax + 1):
        found = None
        for poly in monic(p, d):
            want = trial_division_irreducible(poly, p)
            assert _is_irreducible(poly, p) == want, poly
            assert ref_is_irreducible(poly, p) == want, poly
            if want and found is None:
                found = poly
        assert _find_irreducible(p, d) == found


# -- unit-series products and quotients over a coefficient field ----------


def ref_su_axpy(out, c, shift, b, dom, limit):
    """fields._su_axpy."""
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


def ref_su_mul(a, b, dom, limit):
    """fields._su_mul: the schoolbook loop, one dom.mul per term pair."""
    out = {}
    for i, x in a.items():
        if limit is None or i < limit:
            ref_su_axpy(out, x, i, b, dom, limit)
    return out


def ref_su_div_truncated(a, b, dom, prec):
    """The power-series long division of fields._su_div, to prec terms."""
    binv0 = dom.inv(b[0])
    rem, out = dict(a), {}
    for k in range(prec):
        c = rem.get(k)
        if c is not None:
            c = out[k] = dom.mul(c, binv0)
            ref_su_axpy(rem, dom.neg(c), k, b, dom, prec)
    return out


# GF(q) as (p, d); 2^32 + 15 needs slots wider than any native format
GF_FIELDS = ((2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (251, 1),
             (257, 1), ((1 << 32) + 15, 1))


def _gf_id(pd):
    return f"GF({pd[0]}^{pd[1]})"


def _rand_elem(rng, gf):
    return tuple(rng.randrange(gf.p) for _ in range(gf.d))


def rand_series(rng, gf, n, span, start=0):
    """n terms at distinct offsets in [start, start + span); the first at
    start, every coefficient nonzero."""
    offs = [start] + rng.sample(range(start + 1, start + span), n - 1)
    out = {}
    for k in offs:
        c = ()
        while not c:
            c = gf.add(gf.zero, _rand_elem(rng, gf))
        out[k] = c
    return out


def straddle_lengths(p, d, nmax):
    """Operand lengths n - 1 and n around every n <= nmax at which the
    largest slot sum n * d * (p - 1)^2 of a dense product passes a byte
    boundary 2^(8k)."""
    top = d * (p - 1) ** 2
    out = set()
    for k in range(1, 20):
        n = -(-(1 << 8 * k) // top)
        if 2 <= n <= nmax:
            out |= {n - 1, n}
    return sorted(out)


@pytest.mark.parametrize("pd", GF_FIELDS, ids=_gf_id)
def test_dense_products_straddle_every_slot_width(pd):
    # every component p - 1, so the middle slot of the product holds
    # exactly n * d * (p - 1)^2 before its reduction
    gf = GF(*pd)
    top = tuple([gf.p - 1] * gf.d)
    lengths = straddle_lengths(gf.p, gf.d, 300)
    assert lengths or gf.p > 256
    for n in lengths + [1, 2, 3]:
        a = dict.fromkeys(range(n), top)
        b = dict.fromkeys(range(n + 5), top)
        for x, y in ((a, a), (a, b)):
            want = ref_su_mul(x, y, gf, None)
            assert gf._kronecker_mul(x, y, None) == want, n
            assert gf.series_mul(x, y, None) == want, n


@pytest.mark.parametrize("pd", GF_FIELDS, ids=_gf_id)
@pytest.mark.parametrize("seed", range(6))
def test_series_mul_matches_schoolbook(pd, seed):
    gf = GF(*pd)
    rng = random.Random(seed)
    for _ in range(6):
        # dense, sparse with wide gaps, and one operand off offset 0
        na, nb = rng.randint(1, 30), rng.randint(1, 30)
        a = rand_series(rng, gf, na, na + rng.choice((0, 3, 40, 2000)))
        b = rand_series(rng, gf, nb, nb + rng.choice((0, 5, 300)),
                        start=rng.choice((0, 0, 7)))
        deg = max(a) + max(b)
        for limit in (None, 1, rng.randint(2, deg + 1), deg // 2 + 1,
                      deg + 1, deg + 50):
            for x, y in ((a, b), (b, a), (a, a), (b, b)):
                want = ref_su_mul(x, y, gf, limit)
                assert gf.series_mul(x, y, limit) == want
                if len(x) > 1 and len(y) > 1:
                    assert gf._kronecker_mul(x, y, limit) == want


def test_series_mul_of_empty_and_single_terms():
    gf = GF(3, 2)
    a = {0: (1, 2), 4: (2,)}
    assert gf.series_mul({}, a, None) == gf.series_mul(a, {}, 3) == {}
    assert gf.series_mul({2: (0, 1)}, a, None) \
        == ref_su_mul({2: (0, 1)}, a, gf, None)
    assert gf.series_mul({2: (0, 1)}, a, 5) == {2: gf.mul((0, 1), (1, 2))}


def test_sparse_square_takes_the_schoolbook_loop(monkeypatch):
    gf = GF(2)
    calls = []
    monkeypatch.setattr(GF, "_kronecker_mul",
                        lambda *args: calls.append(args) or {})
    a = {0: (1,), 10 ** 6: (1,)}
    assert gf.series_mul(a, a, None) == {0: (1,), 2 * 10 ** 6: (1,)}
    assert not calls
    # the same two terms next to each other are packed
    gf.series_mul({0: (1,), 1: (1,)}, {0: (1,), 1: (1,)}, None)
    assert len(calls) == 1


# -- one element product: a prime-field factor is a componentwise scaling


def ref_gf_mul(gf, a, b):
    """GF.mul before the scaling: every product through _poly_mulmod."""
    if not a or not b:
        return ()
    return _vec_trim(_poly_mulmod(a, b, gf.modulus, gf.p))


def _refuse(*args):
    raise AssertionError("a kernel the scaling path must skip was called")


@pytest.mark.parametrize("pd", [(2, 2), (2, 3), (3, 2), (3, 3)], ids=_gf_id)
def test_gf_mul_matches_poly_mulmod_on_every_pair(pd):
    gf = GF(*pd)
    elems = list(gf.elements())
    for a in elems:
        for b in elems:
            assert gf.mul(a, b) == ref_gf_mul(gf, a, b), (a, b)


def test_prime_field_scalings_skip_poly_mulmod(monkeypatch):
    rng = random.Random(61)
    big = GF((1 << 61) - 1)
    pairs = [(big.from_int(rng.randrange(big.p)),
              big.from_int(rng.randrange(big.p))) for _ in range(500)]
    pairs += [(big.from_int(-1), big.from_int(-1)), (big.one, big.zero)]
    ext = GF(3, 3)
    pairs_ext = [(a, b) for a in ext.elements() for b in ext.elements()
                 if len(a) < 2 or len(b) < 2]
    want = [ref_gf_mul(big, a, b) for a, b in pairs]
    want_ext = [ref_gf_mul(ext, a, b) for a, b in pairs_ext]
    monkeypatch.setattr(coeffs, "_poly_mulmod", _refuse)
    assert [big.mul(a, b) for a, b in pairs] == want
    assert [ext.mul(a, b) for a, b in pairs_ext] == want_ext


@pytest.mark.parametrize("pd", GF_FIELDS, ids=_gf_id)
def test_single_term_series_mul_matches_schoolbook(pd, monkeypatch):
    gf = GF(*pd)
    rng = random.Random(f"{pd}")
    cases = []
    for _ in range(20):
        n = rng.randint(1, 12)
        b = rand_series(rng, gf, n, n + rng.choice((0, 4, 50)),
                        start=rng.choice((0, 3)))
        i = rng.randint(0, 5)
        a = {i: rand_series(rng, gf, 1, 1)[0]}
        lo, hi = i + min(b), i + max(b)
        # limit None, below, at, inside and above the product's offsets
        for limit in (None, i, lo, rng.randint(lo, hi), hi, hi + 1,
                      hi + 10):
            for x, y in ((a, b), (b, a)):
                kept = sum(limit is None or i + j < limit for j in b)
                cases.append((x, y, limit, kept,
                              schoolbook_series_mul(x, y, gf, limit)))
    calls = []
    mul = gf.mul
    monkeypatch.setattr(gf, "mul", lambda x, y: calls.append(1) or mul(x, y))
    monkeypatch.setattr(coeffs, "series_axpy", _refuse)
    for x, y, limit, kept, want in cases:
        calls.clear()
        got = gf.series_mul(x, y, limit)
        assert got == want and list(got) == list(want)
        assert len(calls) == kept


# -- series sums and products: a first arrival is stored, collisions sum


def _accumulate(out, lost, e, c):
    """Merge coefficient c at exponent e into out.

    A sum that becomes indistinguishable from zero at the working precision
    is removed from the support and its certified bound appended to `lost`,
    to be folded into the tail by the caller.
    """
    if c.is_ring_zero():
        return
    acc = out.get(e)
    if acc is None:
        out[e] = c
        return
    try:
        s = acc + c
    except PrecisionExhausted:
        known = _pmin(acc._known_abs(), c._known_abs())
        lost.append(LogNorm(known, e))
        del out[e]
        return
    if s.is_ring_zero():
        del out[e]
    else:
        out[e] = s


def ref_series_mul(f, g, folds=None):
    """TateSeries.__mul__ with every term pair through _accumulate; the
    number of lost bounds folded into the tail is appended to `folds`."""
    out, lost = {}, []
    for e1, c1 in f.support.items():
        for e2, c2 in g.support.items():
            e = tuple(map(add, e1, e2))
            _accumulate(out, lost, e, c1 * c2)
    tail = LogNorm.zero(f.nvars)
    if not f.tail.is_zero or not g.tail.is_zero:
        tail = ln_max(ln_mul(f.tail, g._term_max(g.tail)),
                      ln_mul(g.tail, f._term_max(f.tail)), f.radii)
    if folds is not None:
        folds.append(len(lost))
    return f._finish(out, tail, lost)


def ref_series_add(f, g, folds=None):
    """TateSeries.__add__ with every term through _accumulate."""
    out = dict(f.support)
    lost = []
    for e, c in g.support.items():
        _accumulate(out, lost, e, c)
    if folds is not None:
        folds.append(len(lost))
    return f._finish(out, ln_max(f.tail, g.tail, f.radii), lost)


Q3 = FieldSpec(PADIC, 3, precision_cap=40)
F4T = FieldSpec(FQ_LAURENT, 2, field_size=4, precision_cap=12)
# log_q(1/r) = sqrt(2)/2 and sqrt(3)/2: no two different norms tie
RADII = {1: (RadiusDecl.default("r1"),),
         2: (RadiusDecl.default("r1"),
             RadiusDecl.quadratic("r2", 0, 1, 2, 3))}


def _assert_same_series(got, want):
    assert list(got.support.items()) == list(want.support.items())
    assert got.tail == want.tail


def rand_coeff_scalar(rng, spec):
    """A nonzero scalar, exact or capped, from a small set of values so that
    sums cancel often."""
    prec = rng.choice((None, None, 1, 2, 3))
    if spec.kind == PADIC:
        fr = Fraction(rng.choice((1, -1, 2, 3, -3)), rng.choice((1, 3)))
        return Scalar(spec, fr.numerator, fr.denominator, prec=prec)
    unit = {0: rng.choice(((1,), (0, 1), (1, 1)))}
    if rng.random() < 0.5:
        unit[1] = (1,)
    return Scalar._laurent(spec, rng.randint(-1, 1), unit, prec)


def rand_tate(rng, spec, arity):
    support = {}
    for _ in range(rng.randint(0, 4)):
        e = tuple(rng.randint(-1, 2) for _ in range(arity))
        support[e] = rand_coeff_scalar(rng, spec)
    tail = None
    if rng.random() < 0.2:
        tail = LogNorm.of(rng.randint(2, 4), (0,) * arity)
    return TateSeries(spec, LAURENT, RADII[arity], support, tail)


@pytest.mark.parametrize("spec", [Q3, F4T], ids=["Q3", "F4T"])
@pytest.mark.parametrize("arity", [1, 2])
def test_series_products_and_sums_match_accumulate_loop(spec, arity):
    rng = random.Random(f"{spec.kind}-{arity}")
    folds = []
    for _ in range(300):
        f, g = rand_tate(rng, spec, arity), rand_tate(rng, spec, arity)
        _assert_same_series(f * g, ref_series_mul(f, g, folds))
        _assert_same_series(f + g, ref_series_add(f, g, folds))
    # capped sums that lose their precision were folded into the tail
    assert sum(folds) >= 1


def test_exponent_that_cancels_and_reappears():
    def series(terms):
        return TateSeries(Q3, LAURENT, RADII[1],
                          {(e,): Scalar.from_int(Q3, c) for e, c in terms})
    f = series([(0, 1), (1, 1), (2, 1)])
    g = series([(1, 1), (0, -1), (-1, 1)])
    # exponents 1, 0 and 2 cancel on the way; 1 then arrives again
    got = f * g
    _assert_same_series(got, ref_series_mul(f, g))
    assert list(got.support) == [(-1,), (3,), (1,)]
    h = series([(1, -1), (2, 1), (3, 1)])
    s = (f + h) + g
    _assert_same_series(s, ref_series_add(ref_series_add(f, h), g))
    assert list(s.support) == [(2,), (3,), (1,), (-1,)]


# -- Laurent scalar sums: one merge below the lower valuation


def ref_laurent_add(self, other):
    """Scalar.__add__ over a Laurent field before the one-pass merge: both
    units merged at their absolute exponents, then Scalar._laurent."""
    spec = self.spec
    if not isinstance(other, Scalar) or (other.spec is not spec
                                         and other.spec != spec):
        raise ValueError("scalars from different fields")
    if self._prec is None and other._prec is None:
        known = None
    else:
        known = _pmin(self._known_abs(), other._known_abs())
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


F2T = FieldSpec(FQ_LAURENT, 2, field_size=2, precision_cap=64)
RF2 = FieldSpec(RATFUN_LAURENT, 2, nvars=3, precision_cap=64)


def _laurent_coeffs(spec):
    """A few nonzero coefficients, so that sums cancel often."""
    dom = spec.domain()
    if spec.kind == FQ_LAURENT:
        return list(dom.elements())[1:]
    u1, u2, u3 = (dom.var(i) for i in range(3))
    return [dom.one, u1, dom.add(dom.one, u2), dom.inv(u1),
            dom.mul(dom.add(dom.one, u1), dom.inv(u3))]


def rand_laurent_scalar(rng, spec, coeffs, val=None, lead=None):
    """t^val times a unit with offsets inserted in random order, exact or
    capped; `lead` fixes the constant term of the unit."""
    keys = [0] + [k for k in range(1, 5) if rng.random() < 0.4]
    rng.shuffle(keys)
    unit = {k: rng.choice(coeffs) if k or lead is None else lead
            for k in keys}
    val = rng.randint(-2, 2) if val is None else val
    return Scalar._laurent(spec, val, unit,
                           rng.choice((None, None, 1, 2, 3, 5)))


def _sum_outcome(add, a, b):
    """(val, unit items in order, prec) of a + b, or the exception class."""
    try:
        s = add(a, b)
    except Exception as exc:
        return type(exc)
    return s._val, list(s._unit.items()), s._prec


@pytest.mark.parametrize("spec", [F2T, F4T, RF2],
                         ids=["F2T", "F4T", "RF2"])
def test_laurent_sums_match_the_old_two_pass_sum(spec):
    rng = random.Random(f"laurent-add-{spec.kind}-{spec.field_size}")
    coeffs = _laurent_coeffs(spec)
    dom = spec.domain()
    zero = Scalar.zero(spec)
    seen = {"exhausted": 0, "zero": 0, "lead_cancelled": 0, "capped": 0}
    for _ in range(300):
        a = rand_laurent_scalar(rng, spec, coeffs)
        # the constant term of a cancels, the rest of b is random
        lead = rand_laurent_scalar(rng, spec, coeffs, a._val,
                                   dom.neg(a._unit[0]))
        pairs = [(a, rand_laurent_scalar(rng, spec, coeffs)), (a, -a),
                 (a, lead), (lead, a), (a, zero), (zero, a), (zero, zero)]
        for x, y in pairs:
            want = _sum_outcome(ref_laurent_add, x, y)
            assert _sum_outcome(Scalar.__add__, x, y) == want
            if want is PrecisionExhausted:
                seen["exhausted"] += 1
            elif want[0] is None:
                seen["zero"] += 1
            else:
                seen["capped"] += want[2] is not None
                seen["lead_cancelled"] += (x is a and y is lead
                                           and want[0] > a._val)
    assert all(seen.values()), seen


# -- RatFun sums and products: polynomials skip the denominator products


@pytest.mark.parametrize("p,nvars", [(2, 3), (3, 2)],
                         ids=["ratfun2", "F3(u1,u2)"])
def test_ratfun_sums_and_products_match_the_general_formula(p, nvars):
    rng = random.Random(f"ratfun-{p}-{nvars}")

    def part(shape):
        # small parts: gcds of larger sums take seconds each
        if shape != "poly":
            return _rand_part(rng, p, nvars, shape)
        terms = {tuple(rng.randint(0, 2) for _ in range(nvars)):
                 rng.randint(1, p - 1) for _ in range(rng.randint(1, 3))}
        return MPoly(p, nvars, terms)

    def operand():
        return RatFun(part(rng.choice(("zero", "one", "poly"))),
                      part(rng.choice(("one", "poly"))))

    polys = 0
    for _ in range(200):
        a, b = operand(), operand()
        polys += a.is_poly() and b.is_poly()
        for x, y in ((a, b), (a, -a), (b, a)):
            for got, want in (
                    (x + y, RatFun(x.num * y.den + y.num * x.den,
                                   x.den * y.den)),
                    (x * y, RatFun(x.num * y.num, x.den * y.den))):
                assert list(got.num.terms.items()) \
                    == list(want.num.terms.items())
                assert list(got.den.terms.items()) \
                    == list(want.den.terms.items())
    assert polys and polys < 200


INVERSE_DOMAINS = [GF(2), GF(3), GF(2, 2), GF(251)]


@pytest.mark.parametrize("dom", INVERSE_DOMAINS,
                         ids=lambda g: _gf_id((g.p, g.d)))
def test_newton_inverse_matches_long_division(dom):
    rng = random.Random(dom.p * 10 + dom.d)
    one = {0: dom.one}
    for b in (rand_series(rng, dom, 40, 40), rand_series(rng, dom, 6, 90),
              rand_series(rng, dom, 2, 2), {0: dom.one, 1: dom.one}):
        a = rand_series(rng, dom, 30, 60)
        for n in range(1, 81):
            inv = _su_inverse(b, dom, n)
            assert inv == ref_su_div_truncated(one, b, dom, n), n
            assert _su_div(a, b, dom, n, 99) \
                == (ref_su_div_truncated(a, b, dom, n), n)


def test_newton_inverse_over_rational_functions():
    dom = RatFunField(3, 1)
    u = dom.var(0)
    b = {0: dom.add(dom.one, u), 1: u, 3: dom.one}
    a = {0: u, 2: dom.add(u, u)}
    for n in range(1, 9):
        assert _su_inverse(b, dom, n) \
            == ref_su_div_truncated({0: dom.one}, b, dom, n)
        assert _su_div(a, b, dom, n, 99) \
            == (ref_su_div_truncated(a, b, dom, n), n)


# -- primality: Miller-Rabin against trial division ----------------------


def ref_is_prime(n):
    """coeffs.is_prime as trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(20_000) if is_prime(n)] \
        == [n for n in range(20_000) if ref_is_prime(n)]
    assert not is_prime(-7)


def test_is_prime_rejects_strong_pseudoprimes():
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7, and
    # 3825123056546413051 to every prime base up to 23
    for n in (3215031751, 3825123056546413051, 561, 1105, 25326001):
        assert not is_prime(n)
    # the largest prime below the bound, and others checked independently
    for n in (2_147_483_647, (1 << 61) - 1, 999_999_999_999_999_989,
              10 ** 24 + 7, 3317044064679887385961813):
        assert is_prime(n)


def test_is_prime_refuses_what_it_cannot_decide():
    big = (1 << 89) - 1                   # a Mersenne prime, about 6.2e26
    with pytest.raises(NonarchError):
        is_prime(big)
    # the bound itself is composite and a strong pseudoprime to all 13
    # bases: above it, passing them proves nothing
    with pytest.raises(NonarchError):
        is_prime(PRIME_TEST_BOUND)
    # a witness still proves a large number composite
    assert not is_prime(big + 2) and not is_prime(big * 3)


def test_gf_of_a_61_bit_prime_builds_quickly():
    start = time.perf_counter()
    f = GF((1 << 61) - 1)
    assert time.perf_counter() - start < 1.0
    assert f.mul(f.from_int(3), f.inv(f.from_int(3))) == f.one


@pytest.mark.parametrize("pd", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)],
                         ids=_gf_id)
def test_nth_roots_keep_the_integer_encoding_order(pd):
    gf = GF(*pd)

    def to_int(a):
        return sum(c * gf.p ** i for i, c in enumerate(a))

    for a in gf.elements():
        for n in (2, 3):
            want = sorted((x for x in gf.elements() if gf.pow(x, n) == a),
                          key=to_int)
            assert gf.nth_roots(a, n) == want
