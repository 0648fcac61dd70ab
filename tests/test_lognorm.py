"""Exact norm-value arithmetic and comparison: every order decided, and
equal values EQ however they are written."""

import collections
import copy
import pickle
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from nonarch import Cmp, LogNorm, RadiusDecl, ln_compare, ln_mul, ln_pow
from nonarch.fields import PADIC, FieldSpec, Scalar
from nonarch.lognorm import (_coords, _log_sign, ln_max, log_q_interval,
                             norm_exceeds)
from nonarch.series import LAURENT, POWER, TateSeries

R1 = RadiusDecl.default("r1")             # log_q(1/r) = sqrt(2)/2
R06 = RadiusDecl.rational_stub("r06", Fraction(3, 5))


def test_mul_examples():
    assert ln_mul(LogNorm.of(1, (0,)), LogNorm.of(0, (1,))) \
        == LogNorm.of(1, (1,))
    assert ln_mul(LogNorm.zero(1), LogNorm.of(5, (7,))).is_zero
    assert ln_mul(LogNorm.of(Fraction(1, 2), (3,)),
                  LogNorm.of(Fraction(1, 2), (-3,))) == LogNorm.of(1, (0,))


def test_pow_examples():
    assert ln_pow(LogNorm.of(2, (0,)), Fraction(1, 2)) == LogNorm.of(1, (0,))
    assert ln_pow(LogNorm.of(1, (1,)), 3) == LogNorm.of(3, (3,))
    assert ln_pow(LogNorm.zero(1), 2).is_zero
    with pytest.raises(ValueError):
        ln_pow(LogNorm.zero(1), 0)


def test_compare_examples():
    assert ln_compare(LogNorm.identity(1), LogNorm.identity(1)) is Cmp.EQ
    # q = 3, log(1/r) ~ 0.6: 3^-1 < 3^-0.6 and 3^-1 > 3^-1.2
    assert ln_compare(LogNorm.of(1, (0,)), LogNorm.of(0, (1,)),
                      (R06,)) is Cmp.LT
    assert ln_compare(LogNorm.of(1, (0,)), LogNorm.of(0, (2,)),
                      (R06,)) is Cmp.GT
    assert ln_compare(LogNorm.zero(1), LogNorm.identity(1)) is Cmp.LT


def test_value_group_membership():
    # a value lies in |k^x|^Q iff no sqrt(D) coordinate of its log is left,
    # and then it is the power of q its rational coordinate names: over the
    # stub r06 = q^(-3/5), r06^5 = q^-3, though it has a radius component
    for n, radii in ((LogNorm.of(0, (5,)), (R06,)),
                     (LogNorm.of(Fraction(1, 2), (Fraction(5, 3),)), (R06,)),
                     (LogNorm.of(1, (4,)), (R_D9,)),
                     (LogNorm.of(2, (Fraction(3, 2), -3)), (R06, R_D9))):
        x = _coords(n.base_exp, n.radius_exps, radii)
        assert set(x) == {1}
        assert ln_compare(n, LogNorm.of(x[1], (0,) * n.arity), radii) \
            is Cmp.EQ
    assert _coords(0, (5,), (R06,)) == {1: 3}
    # over the irrational r1 a radius component always leaves one
    assert _coords(Fraction(1, 2), (3,), (R1,)) \
        == {1: Fraction(1, 2), 2: Fraction(3, 2)}
    assert ln_compare(LogNorm.of(0, (1,)), LogNorm.of(Fraction(7, 10), (0,)),
                      (R1,)) is Cmp.LT


def test_dependent_radii_compare_eq():
    # two generators declared with the same irrational radius: r_1 and r_2
    # are one value written two ways, and every order between them decided
    a = RadiusDecl.default("a")
    b = RadiusDecl.default("b")
    assert ln_compare(LogNorm.of(0, (1, 0)), LogNorm.of(0, (0, 1)),
                      (a, b)) is Cmp.EQ
    assert ln_compare(LogNorm.of(1, (2, 0)), LogNorm.of(1, (1, 1)),
                      (a, b)) is Cmp.EQ
    # log_q(1/value): 1 + sqrt(2) = 2.41 against 3*sqrt(2)/2 = 2.12
    assert ln_compare(LogNorm.of(1, (2, 0)), LogNorm.of(0, (0, 3)),
                      (a, b)) is Cmp.LT


def test_never_eq_for_distinct_structures():
    # decidable distinct pair
    assert ln_compare(LogNorm.of(0, (1,)), LogNorm.of(0, (2,)),
                      (R1,)) is Cmp.GT


def test_declarations():
    assert R1.asserts_irrational
    assert not R06.asserts_irrational      # r06 lies inside |k^x|^Q
    sq9 = RadiusDecl.quadratic("bad", 0, 1, 1, 9)
    assert not sq9.asserts_irrational      # sqrt(9) = 3 is rational
    lo, hi = R1.interval(64)
    assert lo < hi and hi - lo <= Fraction(1, 2 ** 63)
    assert Fraction(7, 10) < lo < hi < Fraction(71, 100)


@settings(max_examples=200)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 4),
       st.integers(1, 40))
def test_irrationality_is_computed(a, b, c, d):
    decl = RadiusDecl.quadratic("q", a, b, c, d)
    squares = {k * k for k in range(7)}
    assert decl.asserts_irrational == (b != 0 and d not in squares)
    back = RadiusDecl.from_json(decl.to_json())
    assert back.to_json() == decl.to_json()
    assert back.quadratic_parts == decl.quadratic_parts == (d, a, b, c)
    stub = RadiusDecl.rational_stub("s", Fraction(a, c))
    assert not stub.asserts_irrational
    assert RadiusDecl.from_json(stub.to_json()).to_json() == stub.to_json()
    if decl.asserts_irrational:
        # exact and never 0: r against 1 cannot tie
        want = Cmp.LT if a + b * d ** 0.5 > 0 else Cmp.GT
        assert ln_compare(LogNorm.of(0, (1,)), LogNorm.identity(1),
                          (decl,)) is want


def test_pad_and_json():
    n = LogNorm.of(Fraction(1, 2))
    assert n.pad(2) == LogNorm.of(Fraction(1, 2), (0, 0))
    assert LogNorm.from_json(n.to_json()) == n
    z = LogNorm.zero(3)
    assert LogNorm.from_json(z.to_json()).is_zero
    assert RadiusDecl.from_json(R1.to_json()).interval(20) == R1.interval(20)


def test_norm_exceeds():
    ratio = LogNorm.of(0, (-37,))   # r^-37 = 3^(37 * 0.7071)
    assert norm_exceeds(ratio, (R1,), 3, Fraction(10) ** 6)
    assert not norm_exceeds(ratio, (R1,), 3, Fraction(10) ** 30)
    lo, hi = log_q_interval(ratio, (R1,))
    assert lo < hi and Fraction(26) < lo and hi < Fraction(27)


_exp = st.fractions(min_value=Fraction(-8), max_value=Fraction(8),
                    max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(_exp, _exp, _exp, _exp)
def test_pow_additivity(a, b, s, t):
    n = LogNorm.of(a, (b,))
    if s == 0 and t == 0:
        return
    assert ln_mul(ln_pow(n, s), ln_pow(n, t)) == ln_pow(n, s + t) \
        or (s + t == 0)


@settings(max_examples=60, deadline=None)
@given(_exp, _exp, _exp, _exp, _exp, _exp)
def test_order_respects_mul(a1, b1, a2, b2, a3, b3):
    x, y = LogNorm.of(a1, (b1,)), LogNorm.of(a2, (b2,))
    c = LogNorm.of(a3, (b3,))
    cmp_xy = ln_compare(x, y, (R1,))
    assert ln_compare(ln_mul(x, c), ln_mul(y, c), (R1,)) is cmp_xy


# ---------------------------------------------------------------------------
# Exact quadratic decision against the interval-refinement oracle

R_NEG = RadiusDecl.quadratic("rneg", 3, -1, 2, 2)     # (3 - sqrt(2))/2
R_D5 = RadiusDecl.quadratic("rd5", 1, 1, 4, 5)        # (1 + sqrt(5))/4
R_D9 = RadiusDecl.quadratic("rd9", 0, 1, 4, 9)        # sqrt(9)/4 = 3/4
R1_TWIN = RadiusDecl.default("r1twin")                # r1's radius again
R1_D8 = RadiusDecl.quadratic("r1d8", 0, 1, 4, 8)      # sqrt(8)/4 = r1's
RADIUS_SET = (R1, R_NEG, R_D5, R_D9, R06, R1_TWIN)


def _raw_interval(decl, depth):
    """Bounds on log_q(1/r) computed here from the declaration's params:
    value -+ 2^-(depth+2) for a stub, (a + b*[lo, hi])/c around
    sqrt(d) for a quadratic one."""
    p = decl.params
    if decl.kind == "rational":
        eps = Fraction(1, 1 << (depth + 2))
        return Fraction(p["value"]) - eps, Fraction(p["value"]) + eps
    scale = 1 << depth
    s = isqrt(p["d"] * scale * scale)
    lo, hi = Fraction(s, scale), Fraction(s + 1, scale)
    if p["b"] < 0:
        lo, hi = hi, lo
    return (p["a"] + p["b"] * lo) / p["c"], (p["a"] + p["b"] * hi) / p["c"]


def test_interval_matches_raw_interval():
    for decl in RADIUS_SET + (R_C3, R_C5, R_D5B):
        for depth in (0, 8, 48, 256):
            assert decl.interval(depth) == _raw_interval(decl, depth)
            lo, hi = decl.interval(depth)
            assert type(lo) is type(hi) is Fraction and lo <= hi


def _oracle_compare(a, b, radii, max_depth=256):
    """The interval loop on the raw intervals; None if undecided."""
    if a == b:
        return Cmp.EQ
    d_base = a.base_exp - b.base_exp
    d_rad = [x - y for x, y in zip(a.radius_exps, b.radius_exps)]
    if not any(d_rad):
        return Cmp.LT if d_base > 0 else Cmp.GT
    depth = 8
    while depth <= max_depth:
        lo = hi = d_base
        for e, decl in zip(d_rad, radii):
            if e:
                llo, lhi = _raw_interval(decl, depth)
                lo, hi = ((lo + e * llo, hi + e * lhi) if e > 0
                          else (lo + e * lhi, hi + e * llo))
        if lo > 0:
            return Cmp.LT
        if hi < 0:
            return Cmp.GT
        depth *= 2
    return None


def _rand_exp(rng):
    return Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3, 4]))


def _tie(rng, a, radii):
    """A norm whose log differs from a's by an exactly vanishing sum, when
    the radii allow one (r06 against e0, r1 against its twin, the
    rational d = 9 radius against e0); else a random norm."""
    ids = [d.gen_id for d in radii]
    exps = list(a.radius_exps)
    base = a.base_exp
    k = rng.randint(1, 3)
    if "r06" in ids:
        exps[ids.index("r06")] += 5 * k
        base -= 3 * k
    elif "r1" in ids and "r1twin" in ids:
        exps[ids.index("r1")] += k
        exps[ids.index("r1twin")] -= k
    elif "rd9" in ids:
        exps[ids.index("rd9")] += 4 * k
        base -= 3 * k
    else:
        return LogNorm.of(_rand_exp(rng), [_rand_exp(rng) for _ in radii])
    return LogNorm.of(base, exps)


def test_exact_compare_agrees_with_interval_oracle():
    # where the oracle's intervals never separate the two, they tie exactly
    rng = random.Random(20251)
    ties = 0
    for _ in range(3000):
        radii = tuple(rng.sample(RADIUS_SET, rng.randint(1, 3)))
        a = LogNorm.of(_rand_exp(rng), [_rand_exp(rng) for _ in radii])
        if rng.random() < 0.2:
            b = _tie(rng, a, radii)
        else:
            b = LogNorm.of(_rand_exp(rng),
                           [_rand_exp(rng) if rng.random() < 0.7 else e
                            for e in a.radius_exps])
        want = _oracle_compare(a, b, radii) or Cmp.EQ
        assert ln_compare(a, b, radii) is want, (a, b, radii)
        ties += want is Cmp.EQ
    assert ties > 100      # the ties really were drawn


def test_exact_compare_needs_no_interval_for_r1(monkeypatch):
    calls = []
    real = RadiusDecl.interval

    def counting(self, depth):
        calls.append(depth)
        return real(self, depth)

    monkeypatch.setattr(RadiusDecl, "interval", counting)
    rng = random.Random(3)
    for _ in range(200):
        a = LogNorm.of(_rand_exp(rng), (_rand_exp(rng),))
        b = LogNorm.of(_rand_exp(rng), (_rand_exp(rng),))
        ln_compare(a, b, (R1,))
    assert calls == []
    # the rational stub still refines
    ln_compare(LogNorm.of(1, (0,)), LogNorm.of(0, (1,)), (R06,))
    assert calls


# ---------------------------------------------------------------------------
# norm_exceeds through ln_compare against the interval ladder it replaced


@cache
def _ipow(b, e):
    return b ** e


def _oracle_norm_exceeds(a, radii, q, bound, depth=48):
    """The former body: interval upper end hi of log_q(1/value) at depth
    48, then q^floor(-hi*D) > bound^D for D = 2^6, 2^12, 2^16.  (The
    powers of the bound are cached; every row reuses them.)"""
    if a.is_zero:
        return False
    bound = Fraction(bound)
    if bound <= 0:
        return True
    hi = a.base_exp
    for e, decl in zip(a.radius_exps, radii):
        if e:
            llo, lhi = _raw_interval(decl, depth)
            hi += e * (lhi if e > 0 else llo)
    for denom_bits in (6, 12, 16):
        D = 1 << denom_bits
        neg_hi_floor = (-hi * D).__floor__()
        if neg_hi_floor <= 0:
            return False
        if (q ** neg_hi_floor * _ipow(bound.denominator, D)
                > _ipow(bound.numerator, D)):
            return True
    return False


EXCEED_BOUNDS = (Fraction(10) ** 6, Fraction(10) ** 12, Fraction(10) ** 30,
                 Fraction(27), Fraction(3) ** 26, Fraction(7, 3),
                 Fraction(1, 2))


@pytest.mark.parametrize("radius", [R1, R06, R_NEG],
                         ids=lambda d: d.gen_id)
def test_norm_exceeds_agrees_with_interval_oracle(radius):
    got = []
    for i in (4, 11, 37, 153, 771):
        ratio = LogNorm.of(0, (-i,))
        for bound in EXCEED_BOUNDS:
            want = _oracle_norm_exceeds(ratio, (radius,), 3, bound)
            assert norm_exceeds(ratio, (radius,), 3, bound) is want, \
                (i, bound)
            got.append(want)
    assert True in got and False in got


def test_norm_exceeds_edges():
    ratio = LogNorm.of(0, (-37,))
    assert norm_exceeds(ratio, (R1,), 3, 0)
    assert norm_exceeds(ratio, (R1,), 3, Fraction(-5, 2))
    assert not norm_exceeds(LogNorm.zero(1), (R1,), 3, Fraction(1, 2))
    # a bound exactly at a power of q: value 27 does not exceed 27
    q3 = LogNorm.of(-3, (0,))
    assert not norm_exceeds(q3, (R1,), 3, 27)
    assert norm_exceeds(q3, (R1,), 3, Fraction(269, 10))
    # 243 = 3^5, where the float estimate of log_3 243 falls just below 5
    q5 = LogNorm.of(-5, (0,))
    assert not norm_exceeds(q5, (R1,), 3, 243)
    assert norm_exceeds(q5, (R1,), 3, 242)
    # r06^-5 = 3^3 exactly: equal to the bracket's lower end, so it does
    # not exceed 27
    assert not norm_exceeds(LogNorm.of(0, (-5,)), (R06,), 3, 27)
    # values below 1 against bounds below 1 (the ladder never certified
    # a value <= q^(1/64), so these have no oracle)
    half = LogNorm.of(Fraction(1, 2), (0,))        # 3^(-1/2) = 0.577...
    assert norm_exceeds(half, (R1,), 3, Fraction(1, 2))
    assert not norm_exceeds(half, (R1,), 3, Fraction(3, 5))
    r = LogNorm.of(0, (1,))                         # 3^(-sqrt(2)/2) = 0.459...
    assert not norm_exceeds(r, (R1,), 3, Fraction(1, 2))
    assert norm_exceeds(r, (R1,), 3, Fraction(1, 4))
    # far above the bound, where the interval ladder builds an 18.6M-bit
    # power of q at D = 64
    assert norm_exceeds(LogNorm.of(0, (-259521,)), (R1,), 3,
                        Fraction(10) ** 30)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_norm_exceeds_close_calls(k):
    # bounds within a factor 1 +- 10^-k of r^-37 = 3^(37 sqrt(2)/2): they
    # need D up to about 2^14 before the bracket separates
    with localcontext() as ctx:
        ctx.prec = 50
        value = Decimal(3) ** (37 * Decimal(2).sqrt() / 2)
        eps = Decimal(10) ** -k
        below = Fraction(value * (1 - eps)).limit_denominator(10 ** 6)
        above = Fraction(value * (1 + eps)).limit_denominator(10 ** 6)
    ratio = LogNorm.of(0, (-37,))
    assert norm_exceeds(ratio, (R1,), 3, below)
    assert not norm_exceeds(ratio, (R1,), 3, above)


# integral exponents are stored as ints, the rest as Fractions; an int
# exponent and the equal Fraction are one value to every consumer

_mixed_exp = st.one_of(st.integers(-40, 40),
                       st.fractions(min_value=Fraction(-40),
                                    max_value=Fraction(40),
                                    max_denominator=7))


def _as_int(e):
    e = Fraction(e)
    return int(e) if e.denominator == 1 else e


def _both(base, rads):
    """The same norm built from int and from Fraction exponents."""
    n_int = LogNorm(_as_int(base), tuple(_as_int(e) for e in rads))
    n_frac = LogNorm(Fraction(base), tuple(Fraction(e) for e in rads))
    for got, want in zip((n_int.base_exp,) + n_int.radius_exps,
                         (base,) + tuple(rads)):
        assert type(got) is (int if Fraction(want).denominator == 1
                             else Fraction)
    assert all(type(e) is Fraction
               for e in (n_frac.base_exp,) + n_frac.radius_exps)
    return n_int, n_frac


@pytest.mark.parametrize("radii", [(R1, R_NEG), (R1, R06), (R_D5, R1_TWIN)],
                         ids=["quadratic", "stub", "mixed-d"])
@settings(max_examples=150, deadline=None)
@given(a0=_mixed_exp, a=st.lists(_mixed_exp, min_size=2, max_size=2),
       b0=_mixed_exp, b=st.lists(_mixed_exp, min_size=2, max_size=2))
def test_int_and_fraction_exponents_agree(radii, a0, a, b0, b):
    a_int, a_frac = _both(a0, a)
    b_int, b_frac = _both(b0, b)
    assert a_int == a_frac and hash(a_int) == hash(a_frac)
    assert a_int.to_json() == a_frac.to_json()
    assert str(a_int) == str(a_frac)
    assert LogNorm.from_json(a_int.to_json()) == a_int
    want = ln_compare(a_frac, b_frac, radii)
    for x, y in ((a_int, b_int), (a_int, b_frac), (a_frac, b_int)):
        assert ln_compare(x, y, radii) is want
    assert ln_mul(a_int, b_int) == ln_mul(a_frac, b_frac)
    assert ln_mul(a_int, b_int).to_json() == ln_mul(a_frac, b_frac).to_json()
    assert log_q_interval(a_int, radii) == log_q_interval(a_frac, radii)
    assert [str(x) for x in log_q_interval(a_int, radii)] \
        == [str(x) for x in log_q_interval(a_frac, radii)]
    assert norm_exceeds(a_int, radii, 3, Fraction(10)) \
        is norm_exceeds(a_frac, radii, 3, Fraction(10))


@pytest.mark.parametrize("radii", [(R1, R_NEG), (R1, R06), (R_D5, R1_TWIN)],
                         ids=["quadratic", "stub", "mixed-d"])
@settings(max_examples=100, deadline=None)
@given(a0=_mixed_exp, a=st.lists(_mixed_exp, min_size=2, max_size=2),
       s=st.integers(-6, 6), b0=_mixed_exp,
       b=st.lists(_mixed_exp, min_size=2, max_size=2))
def test_int_powers_agree_with_fraction_powers(radii, a0, a, s, b0, b):
    # an int power of int exponents stays int; the value, its bytes and
    # every comparison are those of the Fraction power
    a_int, a_frac = _both(a0, a)
    b_int, _ = _both(b0, b)
    got, want = ln_pow(a_int, s), ln_pow(a_frac, Fraction(s))
    assert got == want and hash(got) == hash(want)
    assert (got.to_json(), str(got)) == (want.to_json(), str(want))
    assert all(type(e) is (int if type(x) is int else Fraction)
               for e, x in zip((got.base_exp,) + got.radius_exps,
                               (a_int.base_exp,) + a_int.radius_exps))
    assert ln_compare(got, b_int, radii) is ln_compare(want, b_int, radii)
    assert ln_mul(got, b_int).to_json() == ln_mul(want, b_int).to_json()


def test_non_int_powers_become_fractions():
    n = LogNorm.of(3, (2, 0))
    for s in (Fraction(1, 2), Fraction(4), 1.5, True):
        got = ln_pow(n, s)
        assert all(type(e) is Fraction
                   for e in (got.base_exp,) + got.radius_exps)
        assert got == LogNorm.of(3 * Fraction(s), (2 * Fraction(s), 0))


def test_integral_norms_are_built_from_ints():
    spec = FieldSpec(PADIC, 3)
    f = TateSeries(spec, POWER, (R1,), {(4,): Scalar.from_int(spec, 18)})
    for n in (Scalar.from_fraction(spec, Fraction(2, 27)).norm_ln(2),
              f.term_norm((4,)), f.gauss_norm()[0], LogNorm.zero(3),
              LogNorm.identity(2), LogNorm.of(-3).pad(2)):
        assert all(type(e) is int for e in (n.base_exp,) + n.radius_exps)
    assert f.term_norm((4,)) == LogNorm.of(2, (4,))


def test_other_exponent_inputs_become_fractions():
    n = LogNorm("3/5", (True, 1.5))
    assert (n.base_exp, n.radius_exps) \
        == (Fraction(3, 5), (Fraction(1), Fraction(3, 2)))
    assert all(type(e) is Fraction for e in (n.base_exp,) + n.radius_exps)


# ---------------------------------------------------------------------------
# Integer quadratic parts against the Fraction form they replaced


def _fraction_parts(decl):
    """The (d, a/c, b/c) parts quadratic radii carried before their parts
    became the integers (d, a, b, c)."""
    if decl.quadratic_parts is None:
        return None
    d, a, b, c = decl.quadratic_parts
    return d, Fraction(a, c), Fraction(b, c)


def _oracle_quadratic_sign(d_base, d_rad, radii):
    """Exact sign of d_base + sum d_rad[j] * log_q(1/r_j), or 0 when it is
    not decided here: a radius with a nonzero exponent is not quadratic,
    two such radii differ in d, or the sum vanishes exactly."""
    A, B, d = d_base, 0, None
    for e, decl in zip(d_rad, radii):
        if not e:
            continue
        parts = _fraction_parts(decl)
        if parts is None or (d is not None and parts[0] != d):
            return 0
        d, a, b = parts
        if a:
            A += e * a
        B += e * b
    sa = (A > 0) - (A < 0)
    sb = (B > 0) - (B < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    # opposite signs: |A| against |B|*sqrt(d), squared and cleared of
    # denominators
    lhs = (A.numerator * B.denominator) ** 2
    rhs = (B.numerator * A.denominator) ** 2 * d
    return sa if lhs > rhs else sb if lhs < rhs else 0


R_C3 = RadiusDecl.quadratic("rc3", 1, 2, 3, 2)       # (1 + 2*sqrt(2))/3
R_C5 = RadiusDecl.quadratic("rc5", -2, 3, 5, 2)      # (-2 + 3*sqrt(2))/5
R_D5B = RadiusDecl.quadratic("rd5b", 0, 1, 3, 5)     # sqrt(5)/3


def _rand_int_or_fraction(rng):
    e = Fraction(rng.randint(-30, 30), rng.choice([1, 1, 1, 2, 3, 5]))
    return int(e) if e.denominator == 1 and rng.random() < 0.7 else e


def _oracle_sign(base, exps, radii):
    """The sign of base + sum exps[j] * log_q(1/r_j) by the interval
    oracle; 0 when it stays undecided."""
    got = _oracle_compare(LogNorm.of(base, exps),
                          LogNorm.identity(len(exps)), radii)
    return {Cmp.LT: 1, Cmp.GT: -1, Cmp.EQ: 0, None: 0}[got]


def _want_sign(base, exps, radii):
    """The exact Fraction-form sign where it decides, else the interval
    oracle's."""
    return (_oracle_quadratic_sign(base, exps, radii)
            or _oracle_sign(base, exps, radii))


@pytest.mark.parametrize("radii", [
    (R1,), (R_C3,), (R1, R_C3), (R_C3, R_C5), (R_NEG, R_C5), (R_D9,),
    (R_D5, R_D5B), (R1, R_D5), (R1, R06)],
    ids=["r1", "c3", "c2-c3", "c3-c5", "neg-c5", "d9", "d5-c4-c3",
         "mixed-d", "stub"])
def test_integer_quadratic_sign_matches_fraction_form(radii):
    rng = random.Random(len(radii) * 101 + sum(map(ord, radii[0].gen_id)))
    for _ in range(1500):
        d_base = _rand_int_or_fraction(rng)
        d_rad = tuple(_rand_int_or_fraction(rng) if rng.random() < 0.8
                      else 0 for _ in radii)
        assert _log_sign(d_base, d_rad, radii) \
            == _want_sign(d_base, d_rad, radii), (d_base, d_rad)


def test_integer_quadratic_sign_edge_cases():
    # an exactly vanishing sum over c = 2 and c = 3:
    #   -1 - 4 * sqrt(2)/2 + 3 * (1 + 2*sqrt(2))/3 = 0
    assert _log_sign(-1, (-4, 3), (R1, R_C3)) == 0
    assert _oracle_quadratic_sign(-1, (-4, 3), (R1, R_C3)) == 0
    assert _log_sign(Fraction(-1), (Fraction(-4), Fraction(3)),
                     (R1, R_C3)) == 0
    # one step off the tie either way is decided
    assert _log_sign(0, (-4, 3), (R1, R_C3)) == 1
    assert _log_sign(-2, (-4, 3), (R1, R_C3)) == -1
    # a perfect-square d: sqrt(9)/4 * 4 = 3 exactly
    assert _log_sign(-3, (4,), (R_D9,)) == 0
    assert _log_sign(Fraction(-5, 2), (Fraction(10, 3),), (R_D9,)) == 0
    # mixed d and stubs are decided by interval refinement
    assert _log_sign(100, (1, 1), (R1, R_D5)) == 1
    assert _log_sign(100, (1, 1), (R1, R06)) == 1
    assert _log_sign(Fraction(-7, 10), (1, 0), (R06, R1)) == -1
    # ... and a stub pinned at a tie vanishes exactly: 3 - 5 * 3/5 = 0
    assert _log_sign(3, (-5,), (R06,)) == 0
    # a zero exponent on the other radius leaves it out
    assert _log_sign(1, (1, 0), (R1, R_D5)) == 1
    # no radius component at all: the sign of the base
    assert [_log_sign(b, (0, 0), (R1, R06)) for b in (-2, 0, 3)] \
        == [-1, 0, 1]


def _vanishing(rng, radii):
    """(base, exps) of an exactly vanishing sum over `radii` (r06 against
    e0, r1 against its twin, the d = 9 radius against e0), or None."""
    ids = [d.gen_id for d in radii]
    exps = [0] * len(radii)
    k = rng.choice([-3, -2, -1, 1, 2, 3])
    if "r06" in ids:
        exps[ids.index("r06")] = 5 * k
        return -3 * k, exps
    if "r1" in ids and "r1twin" in ids:
        exps[ids.index("r1")], exps[ids.index("r1twin")] = k, -k
        return 0, exps
    if "rd9" in ids:
        exps[ids.index("rd9")] = 4 * k
        return -3 * k, exps
    return None


@pytest.mark.parametrize("exact", [int, Fraction], ids=["int", "fraction"])
def test_log_sign_matches_both_oracles(exact):
    rng = random.Random(4242)
    zeros = 0
    for _ in range(1500):
        radii = tuple(rng.sample(RADIUS_SET, rng.randint(1, 3)))
        drawn = _vanishing(rng, radii) if rng.random() < 0.25 else None
        if drawn is None:
            drawn = (rng.randint(-12, 12),
                     [rng.randint(-12, 12) if rng.random() < 0.8 else 0
                      for _ in radii])
        base, exps = drawn
        if exact is Fraction:
            den = rng.choice([1, 2, 3, 4])
            base = Fraction(base, den)
            exps = [Fraction(e, den) for e in exps]
        exps = tuple(exps)
        assert all(type(e) is exact for e in (base,) + exps)
        want = _want_sign(base, exps, radii)
        assert _log_sign(base, exps, radii) == want, (base, exps, radii)
        zeros += want == 0
    assert zeros > 100      # the exact vanishings really were drawn


def test_exact_vanishing_is_final(monkeypatch):
    # a sum that vanishes exactly is EQ at once, over one sqrt(d) and
    # across radii, stubs and square classes alike: no interval is refined
    def no_interval(self, depth):
        raise AssertionError("an exact vanishing refined an interval")

    monkeypatch.setattr(RadiusDecl, "interval", no_interval)
    a, b = RadiusDecl.default("r1"), RadiusDecl.default("r1")
    assert ln_compare(LogNorm.of(0, (1, 0)), LogNorm.of(0, (0, 1)),
                      (a, b)) is Cmp.EQ
    # -1 - 4 * r1 + 3 * rc3 = 0 over c = 2 and c = 3
    assert ln_compare(LogNorm.of(-1, (-4, 3)), LogNorm.identity(2),
                      (R1, R_C3)) is Cmp.EQ
    assert ln_compare(LogNorm.of(Fraction(-1, 2), (-2, Fraction(3, 2))),
                      LogNorm.of(0, (0, 0)), (R1, R_C3)) is Cmp.EQ
    # 3 - 5 * 3/5 = 0 over a stub; sqrt(8)/4 = sqrt(2)/2 over d = 2 and 8;
    # sqrt(9)/4 = 3/4 beside a stub
    assert ln_compare(LogNorm.of(3, (0,)), LogNorm.of(0, (5,)),
                      (R06,)) is Cmp.EQ
    assert ln_compare(LogNorm.of(0, (1, 0)), LogNorm.of(0, (0, 1)),
                      (R1, R1_D8)) is Cmp.EQ
    assert ln_compare(LogNorm.of(0, (4, 5)), LogNorm.of(6, (0, 0)),
                      (R_D9, R06)) is Cmp.EQ


# ---------------------------------------------------------------------------
# The sign across square classes against a 120-digit decimal evaluation

R1S = RadiusDecl.quadratic("r1s", 1, 1, 2, 2)        # (1 + sqrt(2))/2
R_S3 = RadiusDecl.quadratic("rs3", 0, 1, 2, 3)       # sqrt(3)/2
SIGN_SET = (R1, R1S, R1_D8, R_S3, R_D9, R06)


def _decimal_log(base, exps, radii):
    """base + sum exps[j] * log_q(1/r_j) to 120 digits."""
    def dec(x):
        x = Fraction(x)
        return Decimal(x.numerator) / Decimal(x.denominator)

    with localcontext() as ctx:
        ctx.prec = 120
        total = dec(base)
        for e, decl in zip(exps, radii):
            if decl.quadratic_parts is None:
                total += dec(e) * dec(decl.value)
            else:
                d, a, b, c = decl.quadratic_parts
                total += dec(e) * (a + b * Decimal(d).sqrt()) / c
        return total


def _cancel_classes(exps, radii):
    """`exps` with one exponent per irrational square class moved so that
    the class's sqrt(D) coordinate vanishes."""
    exps = list(exps)
    for D, v in _coords(0, exps, radii).items():
        for j, decl in enumerate(radii):
            parts = decl.quadratic_parts
            if v and D > 1 and parts and parts[2] \
                    and isqrt(D * parts[0]) ** 2 == D * parts[0]:
                d, _, b, c = parts
                exps[j] -= v / Fraction(b * isqrt(D * d), c * D)
                break
    return exps


def _depth_bound(base, exps, radii):
    """The first depth 8 * 2^i with 2^depth > W*M*H^(2^k - 1), past which
    the interval of a nonzero sum excludes zero (see ``_log_sign``)."""
    x = _coords(base, exps, radii)
    M = 1
    for v in x.values():
        M = M * v.denominator // gcd(M, v.denominator)
    # H over-estimated with sqrt(D) < isqrt(D) + 1
    H = sum(abs(v * M) * (isqrt(D) + (D > 1)) for D, v in x.items())
    k = sum(1 for D, v in x.items() if D > 1 and v)
    W = sum(abs(e) * (Fraction(1, 2) if decl.quadratic_parts is None
                      else Fraction(abs(decl.quadratic_parts[2]),
                                    decl.quadratic_parts[3]))
            for e, decl in zip(exps, radii))
    depth = 8
    while 2 ** depth <= W * M * H ** (2 ** k - 1):
        depth *= 2
    return depth


def test_log_sign_matches_decimal_oracle(monkeypatch):
    depths = []
    real = RadiusDecl.interval

    def recording(self, depth):
        depths.append(depth)
        return real(self, depth)

    monkeypatch.setattr(RadiusDecl, "interval", recording)
    rng = random.Random(1940)
    kinds = collections.Counter()
    deepest = 0
    for _ in range(1500):
        radii = tuple(rng.sample(SIGN_SET, rng.randint(1, 4)))
        exps = [_rand_int_or_fraction(rng) if rng.random() < 0.8 else 0
                for _ in radii]
        base = _rand_int_or_fraction(rng)
        drawn = rng.random()
        if drawn < 0.4:
            # an exact tie built from the coordinates, or a near one
            exps = _cancel_classes(exps, radii)
            base = -_coords(0, exps, radii)[1]
            if drawn < 0.1:
                base += Fraction(rng.choice([-1, 1]), 10 ** rng.randint(3, 9))
        exps = tuple(exps)
        used = [decl for e, decl in zip(exps, radii) if e]
        ds = {decl.quadratic_parts[0] for decl in used if decl.quadratic_parts}
        one_sqrt = len(ds) <= 1 and all(decl.quadratic_parts for decl in used)
        depths.clear()
        got = _log_sign(base, exps, radii)
        value = _decimal_log(base, exps, radii)
        if abs(value) < Decimal(10) ** -100:
            assert got == 0, (base, exps, radii)
            assert not depths       # a zero is never refined
            kinds["tie" if one_sqrt else "mixed-tie"] += 1
        else:
            assert got == (1 if value > 0 else -1), (base, exps, radii)
            if depths:
                assert max(depths) <= _depth_bound(base, exps, radii)
                deepest = max(deepest, max(depths))
            kinds["near-tie" if drawn < 0.1 else "decided"] += 1
        if one_sqrt:
            assert not depths
            kinds["one-sqrt"] += 1
        else:
            kinds["mixed"] += 1
        kinds["stub"] += R06 in used
        kinds["square-d"] += R_D9 in used and not one_sqrt
        kinds["twin-d"] += R1_D8 in used and bool(ds & {2})
        kinds["two-classes"] += len(_coords(base, exps, radii)) == 3
    assert set(kinds) == {"tie", "mixed-tie", "near-tie", "decided",
                          "one-sqrt", "mixed", "stub", "square-d", "twin-d",
                          "two-classes"}
    assert min(kinds.values()) > 20, kinds
    assert deepest > 8


def test_quadratic_parts_are_integers():
    assert R_C3.quadratic_parts == (2, 1, 2, 3)
    assert all(type(x) is int for x in R1.quadratic_parts)
    assert RadiusDecl.from_json(R_NEG.to_json()).quadratic_parts \
        == (2, 3, -1, 2)
    assert R06.quadratic_parts is None


def test_fraction_root_powers_compare_exactly(monkeypatch):
    # ln_pow(n, 1/l) as in spectral-radius: Fraction exponents take the
    # same exact path, no interval refinement
    monkeypatch.setattr(RadiusDecl, "interval", None)
    n = ln_pow(LogNorm.of(3, (7, -2)), Fraction(1, 3))
    m = ln_pow(LogNorm.of(2, (5, -1)), Fraction(1, 2))
    # log_q(1/n) = 1.80 and log_q(1/m) = 2.13: n is the larger norm
    assert ln_compare(n, m, (R1, R_C3)) is Cmp.GT
    assert ln_compare(m, n, (R1, R_C3)) is Cmp.LT
    assert _oracle_compare(n, m, (R1, R_C3)) is Cmp.GT


# ---------------------------------------------------------------------------
# LogNorm as a slotted immutable value


def test_make_equals_validating_constructor():
    rng = random.Random(8)
    for _ in range(300):
        base = _rand_int_or_fraction(rng)
        rads = tuple(_rand_int_or_fraction(rng)
                     for _ in range(rng.randint(0, 3)))
        made, built = LogNorm._make(base, rads), LogNorm(base, rads)
        assert made == built and hash(made) == hash(built)
        assert repr(made) == repr(built) and str(made) == str(built)
        assert made.to_json() == built.to_json()
        assert not made.is_zero and made.arity == len(rads)
    assert LogNorm._make(0, (0,)) != LogNorm.zero(1)
    assert LogNorm._make(0, (0,)).__eq__((0, (0,), False)) is NotImplemented


def test_lognorm_is_immutable_and_keeps_its_repr():
    n = LogNorm.of(Fraction(1, 2), (3, 0))
    for name, value in (("base_exp", 1), ("radius_exps", ()),
                        ("is_zero", True), ("other", 0)):
        with pytest.raises(AttributeError):
            setattr(n, name, value)
    with pytest.raises(AttributeError):
        del n.base_exp
    assert n == LogNorm.of(Fraction(1, 2), (3, 0))
    assert repr(n) == ("LogNorm(base_exp=Fraction(1, 2), radius_exps=(3, 0),"
                       " is_zero=False)")
    assert repr(LogNorm.zero(1)) == ("LogNorm(base_exp=0, radius_exps=(0,),"
                                     " is_zero=True)")
    assert copy.deepcopy(n) == n and pickle.loads(pickle.dumps(n)) == n
    assert {n: 1}[LogNorm._make(Fraction(1, 2), (3, 0))] == 1


# ---------------------------------------------------------------------------
# The order of many norms, as series pruning takes it (it was ln_sorted's):
# ascending by value, ties in exponent order


def _oracle_sorted(norms, radii):
    """Positions of `norms` by insertion with ln_compare: ascending, ties
    in input order."""
    out = []
    for i, n in enumerate(norms):
        k = len(out)
        while k and ln_compare(norms[out[k - 1]], n, radii) is Cmp.GT:
            k -= 1
        out.insert(k, i)
    return out


@pytest.mark.parametrize("radii", [(R1,), (R1, R_C3), (R_D5, R_D5B),
                                   (R1, R_D5), (R06,)],
                         ids=["r1", "c2-c3", "d5", "mixed-d", "stub"])
def test_ln_sorted_matches_comparison_order(radii):
    # pruning at each cap keeps the terms after the first `drop` in the
    # comparison order, and folds the largest dropped norm into the tail
    spec = FieldSpec(PADIC, 3, precision_cap=40)
    rng = random.Random(77)
    pruned = 0
    for _ in range(60):
        exps = sorted({tuple(rng.randint(-6, 6) for _ in radii)
                       for _ in range(rng.randint(2, 25))})
        if len(exps) < 2:
            continue
        support = {e: Scalar.from_fraction(
            spec, Fraction(rng.choice([1, 2, 5, 7]))
            * Fraction(3) ** rng.randint(-4, 4)) for e in exps}
        tail = None
        if rng.random() < 0.5:
            tail = LogNorm.of(rng.randint(-6, 6),
                              [rng.randint(-6, 6) for _ in radii])
        f = TateSeries(spec, LAURENT, radii, support, tail)
        norms = [f.term_norm(e) for e in exps]
        order = _oracle_sorted(norms, radii)
        cap = rng.randint(1, len(exps) - 1)
        drop = len(exps) - cap
        got = f.pruned(cap)
        assert sorted(got.support) == sorted(exps[i] for i in order[drop:])
        assert got.tail == ln_max(f.tail, norms[order[drop - 1]], radii)
        pruned += 1
    assert pruned > 40


def test_ln_max_keeps_its_first_argument_on_a_tie():
    a, b = RadiusDecl.default("a"), RadiusDecl.default("b")
    x, y = LogNorm.of(0, (1, 0)), LogNorm.of(0, (0, 1))
    assert ln_compare(x, y, (a, b)) is ln_compare(y, x, (a, b)) is Cmp.EQ
    assert ln_max(x, y, (a, b)) is x and ln_max(y, x, (a, b)) is y
    # a stub pinned at a tie: 5 * 3/5 = 3
    s = LogNorm.of(3, (0,))
    t = LogNorm.of(0, (5,))
    assert ln_compare(s, t, (R06,)) is ln_compare(t, s, (R06,)) is Cmp.EQ
    assert ln_max(s, t, (R06,)) is s and ln_max(t, s, (R06,)) is t
    assert ln_max(LogNorm.of(0, (2, 0)), x, (a, b)) is x
