"""Field arithmetic, valuations, auxiliary primes and in-field roots."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from nonarch import (DivisionByZero, FieldSpec, NoRootInField,
                     PrecisionExhausted, Scalar, check_aux_prime,
                     scalar_from_literal, scalar_pth_root)
from nonarch.coeffs import is_prime
from nonarch.fields import (FQ_LAURENT, PADIC, RATFUN_LAURENT, _add_pair,
                            _padic_val, _times_q_pow, _unit_mod)

Q3 = FieldSpec(PADIC, 3, precision_cap=40)
F2T = FieldSpec(FQ_LAURENT, 2, field_size=2, precision_cap=64)
F4T = FieldSpec(FQ_LAURENT, 2, field_size=4, precision_cap=64)
RF2 = FieldSpec(RATFUN_LAURENT, 2, nvars=3, precision_cap=64)


def q3(x):
    return Scalar.from_fraction(Q3, Fraction(x))


def test_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(PADIC, 4)
    with pytest.raises(ValueError):
        FieldSpec(FQ_LAURENT, 2, field_size=6)
    with pytest.raises(ValueError):
        FieldSpec(PADIC, 3, precision_cap=0)


def test_spec_construction_defaults_and_equality():
    spec = FieldSpec(PADIC, 3)
    assert spec == FieldSpec(kind=PADIC, residue_prime=3, field_size=0,
                             nvars=0, precision_cap=40)
    assert (spec.field_size, spec.nvars, spec.precision_cap) == (0, 0, 40)
    assert hash(spec) == hash(FieldSpec(PADIC, 3, 0, 0, 40))
    assert spec != FieldSpec(PADIC, 3, precision_cap=41)
    assert spec != (PADIC, 3, 0, 0, 40) and spec != FieldSpec(PADIC, 5)
    assert len({spec, FieldSpec(PADIC, 3), Q3}) == 1
    assert {F4T: 1}[FieldSpec(FQ_LAURENT, 2, field_size=4,
                              precision_cap=64)] == 1
    assert F4T != FieldSpec(FQ_LAURENT, 2, field_size=2, precision_cap=64)
    assert RF2 != FieldSpec(RATFUN_LAURENT, 2, nvars=2, precision_cap=64)


def test_spec_repr_is_the_field_list():
    assert repr(FieldSpec(PADIC, 3)) == (
        "FieldSpec(kind='PADIC', residue_prime=3, field_size=0, nvars=0, "
        "precision_cap=40)")
    assert repr(RF2) == (
        "FieldSpec(kind='RATFUN_LAURENT', residue_prime=2, field_size=0, "
        "nvars=3, precision_cap=64)")


def test_spec_is_immutable():
    spec = FieldSpec(PADIC, 3)
    for name in ("kind", "residue_prime", "precision_cap", "_domain",
                 "other"):
        with pytest.raises(AttributeError):
            setattr(spec, name, 5)
        with pytest.raises(AttributeError):
            delattr(spec, name)
    assert spec == Q3 and spec.precision_cap == 40


@pytest.mark.parametrize("spec", [Q3, F2T, F4T, RF2,
                                  FieldSpec(PADIC, 10 ** 9 + 7, 0, 0, 7)])
def test_spec_json_round_trip(spec):
    again = FieldSpec.from_json(spec.to_json())
    assert again == spec and repr(again) == repr(spec)
    assert again.to_json() == spec.to_json()
    assert type(again.domain()) is type(spec.domain())


def test_padic_arith_examples():
    s = q3(3) + q3(6)
    assert s.valuation() == 2 and s.unit_part() == 1
    m = q3(Fraction(1, 3)) * q3(3)
    assert m.valuation() == 0 and m.unit_part() == 1


def test_laurent_cancellation():
    t = Scalar.t_power(F2T)
    assert ((t + t * t) + t).valuation() == 2


def test_norm_examples():
    assert q3(9).norm_ln().base_exp == 2
    assert q3(Fraction(1, 3)).norm_ln().base_exp == -1
    assert scalar_from_literal(F2T, "t^3 + t^5").norm_ln().base_exp == 3
    assert q3(0).norm_ln().is_zero


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        q3(1) / q3(0)
    with pytest.raises(DivisionByZero):
        Scalar.one(F2T) / Scalar.zero(F2T)
    # a Laurent field inverts a denominator other than 1 in its residues
    assert Scalar.from_fraction(F4T, Fraction(5, 3)).equals(Scalar.one(F4T))
    with pytest.raises(DivisionByZero):
        Scalar.from_fraction(F4T, Fraction(1, 2))


def test_check_aux_prime():
    assert check_aux_prime(Q3, 2)
    assert not check_aux_prime(Q3, 3)
    assert check_aux_prime(F2T, 3)
    assert not check_aux_prime(F2T, 2)
    assert check_aux_prime(RF2, 5)


@pytest.mark.parametrize("p", [2, 5, 7, 11])
def test_aux_prime_has_unit_norm(p):
    for spec in (Q3, F2T, RF2):
        if check_aux_prime(spec, p):
            assert Scalar.from_int(spec, p).norm_ln().is_identity()


def test_scalar_pth_root_q3():
    r = scalar_pth_root(q3(4), 2)
    assert r.equals(q3(-2))
    assert r.pow_int(2).equals(q3(4))
    assert scalar_pth_root(q3(1), 2).equals(q3(1))
    assert scalar_pth_root(q3(25), 2).equals(q3(-5))


def test_scalar_pth_root_branch_near_one():
    # unit congruent to 1 picks the |r - 1| < 1 branch
    r = scalar_pth_root(q3(4), 2)
    assert (r - Scalar.one(Q3)).valuation() >= 1


def test_scalar_pth_root_obstructions():
    with pytest.raises(NoRootInField):
        scalar_pth_root(q3(3), 2)          # odd valuation
    with pytest.raises(NoRootInField):
        scalar_pth_root(q3(2), 2)          # 2 is not a square mod 3


def _residue_roots(r, p, q):
    """Every x in 2..q-1 with x^p = r mod q: the residue enumeration that
    the p-adic root replaced, kept as its oracle."""
    return [x for x in range(2, q) if pow(x, p, q) == r]


def test_residue_roots_match_the_enumeration():
    # the unique root when p does not divide q - 1, Euler's criterion and
    # the smallest root when it does
    for q in filter(is_prime, range(2, 102)):
        for p in (2, 3, 5, 7, 11, 13):
            if p == q:
                continue
            spec = FieldSpec(PADIC, q, precision_cap=3)
            for r in range(2, q):
                a = Scalar.from_int(spec, r)
                roots = _residue_roots(r, p, q)
                if not roots:
                    with pytest.raises(NoRootInField):
                        scalar_pth_root(a, p)
                    continue
                root = scalar_pth_root(a, p)
                assert _unit_mod(root, 1) == roots[0], (q, p, r)
                assert root.pow_int(p).equals(a)


def test_dyadic_cube_root():
    q2 = FieldSpec(PADIC, 2, precision_cap=50)
    nine = Scalar.from_int(q2, 9)
    r = scalar_pth_root(nine, 3)
    assert r.precision == 50
    assert r.pow_int(3).equals(nine)
    assert (r - Scalar.one(q2)).valuation() >= 1


def test_laurent_pth_root():
    f = scalar_from_literal(F2T, "1 + t")
    c = scalar_pth_root(f, 3)
    assert c.pow_int(3).equals(f)
    assert c.precision == 64


def test_pth_root_negative_valuation():
    r = scalar_pth_root(q3(Fraction(4, 9)), 2)
    assert r.equals(q3(Fraction(-2, 3)))
    f = scalar_from_literal(F2T, "t^-3 + t^-2")   # t^-3 (1 + t)
    c = scalar_pth_root(f, 3)
    assert c.valuation() == -1
    assert c.pow_int(3).equals(f)


def test_division_roundtrip_random():
    import random
    rng = random.Random(17)
    for _ in range(60):
        a = scalar_from_literal(
            F2T, " + ".join(f"t^{e}" for e in
                            sorted({rng.randint(-4, 6)
                                    for _ in range(rng.randint(1, 4))})))
        b = scalar_from_literal(
            F2T, " + ".join(f"t^{e}" for e in
                            sorted({rng.randint(-3, 4)
                                    for _ in range(rng.randint(1, 3))})))
        assert ((a * b) / b).equals(a)


def test_precision_exhaustion_and_equals():
    capped = scalar_pth_root(q3(4), 2)
    with pytest.raises(PrecisionExhausted):
        capped - capped
    assert capped.equals(capped)
    assert capped.equals(q3(-2))
    assert not capped.equals(q3(2))


def test_literals_roundtrip():
    for lit in ["0", "4", "-2", "13/4", "1/2*3^1", "2*3^-2"]:
        s = scalar_from_literal(Q3, lit)
        assert scalar_from_literal(Q3, s.to_literal()).equals(s)
    for lit in ["0", "t^3 + t^5", "1 + t", "t^-2 + 1"]:
        s = scalar_from_literal(F2T, lit)
        assert s.to_literal() == lit
    s = scalar_from_literal(RF2, "(u1 + u2)*t^-1")
    assert s.to_literal() == "(u1 + u2)*t^-1"
    w = scalar_from_literal(F4T, "w*t + t^2")
    assert w.to_literal() == "w*t + t^2"


def test_f4_arithmetic():
    w = scalar_from_literal(F4T, "w")
    assert (w * w).equals(scalar_from_literal(F4T, "w + 1"))
    assert (w * w * w).equals(Scalar.one(F4T))


def test_ratfun_division_exact():
    s = scalar_from_literal(RF2, "(u1 + u2)*t^-1")
    q = s / scalar_from_literal(RF2, "u1 + u2")
    assert q.equals(Scalar.t_power(RF2, -1))
    assert q.exact


def test_series_expansion_division_capped():
    d = Scalar.one(F2T) / scalar_from_literal(F2T, "1 + t")
    assert d.precision == 64
    # (1+t) * (1/(1+t)) = 1 at working precision
    assert (d * scalar_from_literal(F2T, "1 + t")).equals(Scalar.one(F2T))


_frac = st.fractions(min_value=Fraction(-81), max_value=Fraction(81),
                     max_denominator=81)


@settings(max_examples=80, deadline=None)
@given(_frac, _frac)
def test_ultrametric_inequality(a, b):
    x, y = q3(a), q3(b)
    ns, nx, ny = (x + y).norm_ln(), x.norm_ln(), y.norm_ln()
    if nx.is_zero and ny.is_zero:
        assert ns.is_zero
        return
    mx = min((n.base_exp for n in (nx, ny) if not n.is_zero))
    if not ns.is_zero:
        assert ns.base_exp >= mx
    if not nx.is_zero and not ny.is_zero and nx != ny:
        assert not ns.is_zero and ns.base_exp == mx


@settings(max_examples=80, deadline=None)
@given(_frac, _frac)
def test_norm_multiplicative(a, b):
    if a == 0 or b == 0:
        return
    x, y = q3(a), q3(b)
    assert (x * y).norm_ln().base_exp == \
        x.norm_ln().base_exp + y.norm_ln().base_exp


@settings(max_examples=40, deadline=None)
@given(st.integers(-6, 6).filter(lambda i: i != 0), st.integers(-6, 6))
def test_laurent_norm_multiplicative(i, j):
    x = Scalar.t_power(F2T, i) + Scalar.one(F2T)   # nonzero: i != 0 in F_2
    y = Scalar.t_power(F2T, j)
    assert (x * y).norm_ln().base_exp == \
        x.norm_ln().base_exp + y.norm_ln().base_exp


# p-adic add/mul build their result directly; they must agree with the
# validated constructors on value, precision and valuation

Q5 = FieldSpec(PADIC, 5, precision_cap=40)
_pfrac = st.fractions(min_value=Fraction(-243), max_value=Fraction(243),
                      max_denominator=250)
_prec = st.one_of(st.none(), st.integers(1, 12))


def _raw(spec, fr, prec=None):
    """The scalar with representative fr and relative precision prec,
    built by the unchecked constructor."""
    return Scalar(spec, fr.numerator, fr.denominator, prec=prec)


def _capped(spec, fr, prec):
    return _raw(spec, fr, prec if fr else None)


def _assert_reduced(s):
    """The p-adic representation invariant: den > 0, gcd 1, zero (0, 1)."""
    assert type(s._num) is int and type(s._den) is int
    assert s._den > 0 and gcd(s._num, s._den) == 1
    assert s._num or s._den == 1


def _expected_sum(spec, x, y, rep):
    """x + y (value rep) from the precision model: the sum is known modulo
    the coarser of the two absolute precisions; None if it is lost."""
    known = [s.valuation() + s.precision for s in (x, y) if not s.exact]
    if not known:
        return Scalar.from_fraction(spec, rep)
    v = Scalar.from_fraction(spec, rep).valuation()
    if v is None or v >= min(known):
        return None
    return _raw(spec, rep, min(known) - v)


@pytest.mark.parametrize("spec", [Q3, Q5], ids=["Q3", "Q5"])
@settings(max_examples=150, deadline=None)
@given(a=_pfrac, pa=_prec, b=_pfrac, pb=_prec)
@example(a=Fraction(1), pa=3, b=Fraction(-1), pb=None)   # sum lost
@example(a=Fraction(1), pa=5, b=Fraction(8), pb=None)    # sum 9, prec cut
def test_padic_fast_paths_match_validated(spec, a, pa, b, pb):
    x, y = _capped(spec, a, pa), _capped(spec, b, pb)
    precs = [p for p in (x.precision, y.precision) if p is not None]
    want = (Scalar.from_fraction(spec, a * b) if not precs or a * b == 0
            else _raw(spec, a * b, min(precs)))
    got = x * y
    assert (got, got.precision, got.valuation()) \
        == (want, want.precision, want.valuation())
    _assert_reduced(got)
    want = _expected_sum(spec, x, y, a + b)
    if want is None:
        with pytest.raises(PrecisionExhausted):
            x + y
        return
    got = x + y
    assert (got, got.precision, got.valuation()) \
        == (want, want.precision, want.valuation())
    _assert_reduced(got)


# p-adic valuations: the repeated-squaring search against one division per
# digit, and the cached valuation against a fresh one


def _digit_loop_val(fr, q):
    v, n, d = 0, fr.numerator, fr.denominator
    while n % q == 0:
        n //= q
        v += 1
    while d % q == 0:
        d //= q
        v -= 1
    return v


# around every power of two the binary search walks through
_EDGE_EXPS = sorted({0, 599, 600} | {
    e for i in range(10) for e in (2 ** i - 1, 2 ** i, 2 ** i + 1)})


@pytest.mark.parametrize("q", [2, 3, 5])
def test_padic_val_at_power_of_two_edges(q):
    for a in _EDGE_EXPS:
        for b in (0, a, 600 - a):
            for n, m in ((1, 1), (-7, 11), (q + 1, 2 * q - 1)):
                fr = Fraction(n * q ** a, m * q ** b)
                assert _padic_val(fr.numerator, fr.denominator, q) \
                    == _digit_loop_val(fr, q) == a - b


@pytest.mark.parametrize("q", [2, 3, 5])
@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 10 ** 9), m=st.integers(1, 10 ** 9),
       a=st.one_of(st.integers(0, 600), st.sampled_from(_EDGE_EXPS)),
       b=st.one_of(st.integers(0, 600), st.sampled_from(_EDGE_EXPS)),
       sign=st.sampled_from([1, -1]))
def test_padic_val_matches_digit_loop(q, n, m, a, b, sign):
    fr = Fraction(sign * n * q ** a, m * q ** b)
    assert _padic_val(fr.numerator, fr.denominator, q) \
        == _digit_loop_val(fr, q)


def _assert_fresh_valuation(s):
    q = s.spec.residue_prime
    want = None if s.is_ring_zero() else _digit_loop_val(s.to_fraction(),
                                                          q)
    assert s.valuation() == want
    assert s.valuation() == want      # the cached value, on a second read


@pytest.mark.parametrize("spec", [Q3, Q5], ids=["Q3", "Q5"])
@settings(max_examples=150, deadline=None)
@given(a=_pfrac, pa=_prec, b=_pfrac, pb=_prec, warm=st.booleans())
def test_cached_valuation_matches_fresh(spec, a, pa, b, pb, warm):
    x, y = _capped(spec, a, pa), _capped(spec, b, pb)
    if warm:                          # operands with and without a cache
        x.valuation()
    out = [x * y, -x, x.cap(), y.cap(), x.reduce_representative(3),
           y.reduce_representative(9), (x * y).cap()]
    if not y.is_ring_zero():
        out += [x / y, (x / y).reduce_representative(4)]
    try:
        out.append(x + y)
        out.append((x + y).cap())
    except PrecisionExhausted:
        pass
    for s in out:
        _assert_fresh_valuation(s)


@pytest.mark.parametrize("spec", [Q3, Q5], ids=["Q3", "Q5"])
@settings(max_examples=100, deadline=None)
@given(a=_pfrac, pa=_prec, k=st.integers(-4, 6), warm=st.booleans())
def test_padic_pow_matches_repeated_products(spec, a, pa, k, warm):
    x = _capped(spec, a, pa)
    if k < 0 and x.is_ring_zero():
        return
    if warm:
        x.valuation()
    base = x if k >= 0 else x.invert()
    want = Scalar.one(spec)
    for _ in range(abs(k)):
        want = want * base
    got = x.pow_int(k)
    assert (got, got.precision) == (want, want.precision)
    _assert_fresh_valuation(got)


# Laurent unit-series kernel against schoolbook arithmetic built from
# GF.mul and GF.add alone, on exact and capped scalars

KERNEL_SPECS = {f"F{q}": FieldSpec(FQ_LAURENT, p, field_size=q,
                                   precision_cap=16)
                for p, q in ((2, 2), (3, 3), (2, 4))}


@st.composite
def _laurent_scalars(draw, spec):
    elems = list(spec.domain().elements())
    coeffs = draw(st.lists(st.sampled_from(elems), min_size=1, max_size=8))
    coeffs[0] = draw(st.sampled_from(elems[1:]))
    prec = draw(st.one_of(st.none(), st.integers(1, 10)))
    unit = {k: c for k, c in enumerate(coeffs)
            if c and (prec is None or k < prec)}
    return Scalar(spec, val=draw(st.integers(-4, 4)), unit=unit, prec=prec)


def _schoolbook(gf, a, b, limit):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = gf.add(out.get(i + j, gf.zero), gf.mul(x, y))
    return {k: c for k, c in out.items() if c and (limit is None or k < limit)}


def _truncated(unit, limit):
    return {k: c for k, c in unit.items() if limit is None or k < limit}


def _known_abs(x):
    return None if x.exact else x.valuation() + x.precision


def _oracle_sum(gf, x, y):
    """(valuation, unit, precision) of x + y; None for an exact zero and
    PrecisionExhausted when nothing is left below the known precision."""
    known = [k for k in (_known_abs(x), _known_abs(y)) if k is not None]
    merged = {}
    for s in (x, y):
        for k, c in s.unit_part().items():
            e = s.valuation() + k
            merged[e] = gf.add(merged.get(e, gf.zero), c)
    merged = {e: c for e, c in merged.items()
              if c and (not known or e < min(known))}
    if not merged:
        return PrecisionExhausted if known else None
    v = min(merged)
    return (v, {e - v: c for e, c in merged.items()},
            min(known) - v if known else None)


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_laurent_kernel_matches_schoolbook(name, data):
    spec = KERNEL_SPECS[name]
    gf = spec.domain()
    a = data.draw(_laurent_scalars(spec))
    b = data.draw(_laurent_scalars(spec))
    if data.draw(st.booleans()):
        # b starts like -a, so a + b cancels its leading terms
        k = data.draw(st.integers(1, 8))
        unit = {i: c for i, c in b.unit_part().items() if i >= k}
        unit.update({i: gf.neg(c) for i, c in a.unit_part().items()
                     if i < k})
        b = Scalar._laurent(spec, a.valuation(), unit, b.precision)
    limit = (min(x.precision for x in (a, b) if not x.exact)
             if not (a.exact and b.exact) else None)

    prod = a * b
    assert (prod.valuation(), prod.precision) \
        == (a.valuation() + b.valuation(), limit)
    assert prod.unit_part() == _schoolbook(gf, a.unit_part(), b.unit_part(),
                                           limit)

    want = _oracle_sum(gf, a, b)
    if want is PrecisionExhausted:
        with pytest.raises(PrecisionExhausted):
            a + b
    elif want is None:
        assert (a + b).is_ring_zero()
    else:
        s = a + b
        assert (s.valuation(), s.unit_part(), s.precision) == want

    quo = a / b
    assert quo.valuation() == a.valuation() - b.valuation()
    # exact operands give an exact quotient, or one capped when b does not
    # divide a
    assert quo.precision in ((limit,) if limit is not None else (None, 16))
    back = quo * b
    assert back.valuation() == a.valuation()
    assert back.unit_part() == _truncated(a.unit_part(), back.precision)

    p = 2 if spec.char == 3 else 3
    c = a.pow_int(p)
    root = scalar_pth_root(c, p)
    assert root.precision == (16 if c.exact else min(c.precision, 16))
    again = root.pow_int(p)
    assert again.valuation() == c.valuation()
    assert again.unit_part() == _truncated(c.unit_part(), again.precision)


@pytest.mark.parametrize("name", ["F2", "F3"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_laurent_product_matches_sympy(name, data):
    sympy = pytest.importorskip("sympy")
    spec = KERNEL_SPECS[name]
    p = spec.char
    x = sympy.Symbol("x")
    a = data.draw(_laurent_scalars(spec))
    b = data.draw(_laurent_scalars(spec))
    pa, pb = (sympy.Poly.from_dict({(k,): c[0] for k, c in
                                    s.unit_part().items()}, x, modulus=p)
              for s in (a, b))
    prod = a * b
    want = {k: (v % p,) for (k,), v in (pa * pb).as_dict().items()
            if v % p and (prod.exact or k < prod.precision)}
    assert prod.unit_part() == want


# The reduced (num, den) pair against Fraction arithmetic on the same
# values: exact and capped operands, zero, both signs, q in the numerator
# or the denominator, and numbers several hundred digits long


def _qfrac(s, n, m, i, j, k, l):
    return s * Fraction(n * 3 ** i * 5 ** j, m * 3 ** k * 5 ** l)


_part = st.one_of(st.integers(1, 60), st.integers(1, 10 ** 300))
_qexp = st.integers(0, 25)
_value = st.one_of(st.just(Fraction(0)), _pfrac,
                   st.builds(_qfrac, st.sampled_from([1, -1]), _part, _part,
                             _qexp, _qexp, _qexp, _qexp))


def _val(fr, q):
    return None if fr == 0 else _digit_loop_val(fr, q)


def _literal(fr, q):
    if fr == 0:
        return "0"
    v = _val(fr, q)
    us = str(fr / Fraction(q) ** v)
    return us if v == 0 else f"{us}*{q}^{v}"


def _pmin(*precs):
    precs = [p for p in precs if p is not None]
    return min(precs) if precs else None


def _assert_is(s, value, prec):
    """s holds exactly value at relative precision prec, in normal form."""
    q = s.spec.residue_prime
    _assert_reduced(s)
    assert s.to_fraction() == value and s.precision == prec
    assert s.valuation() == _val(value, q)
    assert s.to_literal() == _literal(value, q)
    want = _raw(s.spec, value, prec)
    assert s == want and hash(s) == hash(want)


def _assert_canonical_digits(s, a, v, m):
    """s is exact or at precision m, of valuation v, congruent to a
    modulo q^(v+m), with unit an integer in [1, q^m)."""
    q = s.spec.residue_prime
    _assert_reduced(s)
    c = s.to_fraction()
    assert s.valuation() == _val(c, q) == v
    unit = c / Fraction(q) ** v
    assert unit.denominator == 1 and 0 < unit.numerator < q ** m
    assert c == a or _val(c - a, q) >= v + m


@pytest.mark.parametrize("spec", [Q3, Q5], ids=["Q3", "Q5"])
@settings(max_examples=200, deadline=None)
@given(a=_value, pa=_prec, b=_value, pb=_prec, k=st.integers(-3, 3),
       depth=st.integers(-6, 30))
@example(a=Fraction(5, 3), pa=None, b=Fraction(-9, 5), pb=None, k=-2,
         depth=4)                                         # both cross gcds
@example(a=Fraction(0), pa=None, b=Fraction(-2, 15), pb=4, k=2, depth=0)
@example(a=Fraction(2, 45), pa=None, b=Fraction(2, 45), pb=None, k=-1,
         depth=1)                                         # x - y = 0
@example(a=Fraction(1), pa=3, b=Fraction(-1), pb=None, k=3,
         depth=2)                                         # sum lost
def test_padic_ops_match_fraction_oracle(spec, a, pa, b, pb, k, depth):
    q = spec.residue_prime
    x, y = _capped(spec, a, pa), _capped(spec, b, pb)
    px, py = x.precision, y.precision
    _assert_is(x, a, px)
    _assert_is(x * y, a * b, None if a * b == 0 else _pmin(px, py))
    _assert_is(-x, -a, px)
    if b == 0:
        with pytest.raises(DivisionByZero):
            x / y
    else:
        _assert_is(x / y, a / b, None if a == 0 else _pmin(px, py))
    for op, value in ((x.__add__, a + b), (x.__sub__, a - b)):
        want = _expected_sum(spec, x, y, value)
        if want is None:
            with pytest.raises(PrecisionExhausted):
                op(y)
        else:
            _assert_is(op(y), value, want.precision)
    if a == 0 and k < 0:
        with pytest.raises(DivisionByZero):
            x.pow_int(k)
    else:
        _assert_is(x.pow_int(k), a ** k, None if k == 0 or a == 0 else px)
    known = [_val(s, q) + p for s, p in ((a, px), (b, py)) if p is not None]
    assert x.equals(y) is (a == b or bool(known)
                           and _val(a - b, q) >= min(known))
    if a == 0:
        assert x.cap() is x and x.reduce_representative(depth) is x
        return
    v = _val(a, q)
    assert x.unit_part() == a / Fraction(q) ** v
    m = _pmin(px, spec.precision_cap)
    capped = x.cap()
    assert capped.precision == m
    _assert_canonical_digits(capped, a, v, m)
    reduced = x.reduce_representative(depth)
    if px is not None or v >= depth:
        assert reduced is x
    else:
        assert reduced.exact
        _assert_canonical_digits(reduced, a, v, depth - v)


def test_from_fraction_reads_ints_fractions_and_strings():
    for given_value, want in ((-18, Fraction(-18)), (Fraction(6, -4),
                                                     Fraction(-3, 2)),
                              ("10/45", Fraction(2, 9)), (0, Fraction(0))):
        s = Scalar.from_fraction(Q3, given_value)
        _assert_is(s, want, None)
        assert s.to_fraction() == want and type(s.to_fraction()) is Fraction
    with pytest.raises(ValueError):
        Scalar.one(F2T).to_fraction()


# p-adic products, quotients and sums build their result in one body; the
# helper path they replaced is kept here verbatim (up to its names) as the
# oracle, down to which results carry a cached valuation


def ref_vsum(a, b, sign):
    if a._val is None or b._val is None:
        return None
    return a._val + sign * b._val


def ref_pmin(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def ref_mul_pair(a, b, c, d):
    if not a or not c:
        return 0, 1
    g, h = gcd(a, d), gcd(c, b)
    return (a // g) * (c // h), (b // h) * (d // g)


def ref_known_abs(s):
    return None if s._prec is None else s.valuation() + s._prec


def ref_mul(x, y):
    prec = ref_pmin(x._prec, y._prec)
    num, den = ref_mul_pair(x._num, x._den, y._num, y._den)
    if not num:
        return Scalar(x.spec, num, den)
    return Scalar(x.spec, num, den, val=ref_vsum(x, y, 1), prec=prec)


def ref_truediv(x, y):
    c, d = y._num, y._den
    num, den = ref_mul_pair(x._num, x._den, d, c) if c > 0 \
        else ref_mul_pair(x._num, x._den, -d, -c)
    if not num:
        return Scalar(x.spec, num, den)
    return Scalar(x.spec, num, den, val=ref_vsum(x, y, -1),
                  prec=ref_pmin(x._prec, y._prec))


def ref_add(x, y):
    known = ref_pmin(ref_known_abs(x), ref_known_abs(y))
    num, den = _add_pair(x._num, x._den, y._num, y._den)
    if known is None:
        return Scalar(x.spec, num, den)
    v = _padic_val(num, den, x.spec.residue_prime) if num else None
    if v is None or v >= known:
        raise PrecisionExhausted("sum indistinguishable from zero at the cap")
    return Scalar(x.spec, num, den, val=v, prec=known - v)


def _slots(s):
    return s._num, s._den, s._val, s._prec


def _outcome(op, x, y):
    try:
        return _slots(op(x, y))
    except PrecisionExhausted:
        return PrecisionExhausted


@pytest.mark.parametrize("spec", [Q3, Q5], ids=["Q3", "Q5"])
@settings(max_examples=300, deadline=None)
@given(a=_value, pa=_prec, b=_value, pb=_prec, warm_a=st.booleans(),
       warm_b=st.booleans())
@example(a=Fraction(1), pa=3, b=Fraction(-1), pb=None, warm_a=False,
         warm_b=False)                                  # capped sum vanishes
@example(a=Fraction(2, 9), pa=4, b=Fraction(-2, 9), pb=2, warm_a=True,
         warm_b=True)                                   # both capped
@example(a=Fraction(5, 3), pa=None, b=Fraction(-9, 5), pb=6, warm_a=True,
         warm_b=False)                                  # one cached _val
def test_padic_product_and_sum_match_helper_path(spec, a, pa, b, pb, warm_a,
                                                 warm_b):
    x, y = _capped(spec, a, pa), _capped(spec, b, pb)
    for s, warm in ((x, warm_a), (y, warm_b)):
        if warm:
            s.valuation()
    assert _outcome(Scalar.__mul__, x, y) == _outcome(ref_mul, x, y)
    assert _outcome(Scalar.__add__, x, y) == _outcome(ref_add, x, y)
    if b:
        assert _outcome(Scalar.__truediv__, x, y) \
            == _outcome(ref_truediv, x, y)
    # and the values are Fraction arithmetic, at the coarser precision
    prec = _pmin(x.precision, y.precision)
    _assert_is(x * y, a * b, None if a * b == 0 else prec)
    if b:
        _assert_is(x / y, a / b, None if a == 0 else prec)
    want = _expected_sum(spec, x, y, a + b)
    if want is None:
        assert prec is not None
        with pytest.raises(PrecisionExhausted):
            x + y
    else:
        _assert_is(x + y, a + b, want.precision)


# Scalar.cap and Scalar.reduce_representative before they shared one
# truncation (Scalar._cut), kept verbatim as the oracle


def ref_reduce_representative(self, depth: int):
    if self.is_ring_zero():
        return self
    if self.spec.kind == PADIC:
        v = self.valuation()
        if self._prec is not None or v >= depth:
            return self
        u = _unit_mod(self, depth - v)
        return Scalar(self.spec, *_times_q_pow(u, self.spec.residue_prime,
                                               v), val=v)
    if self._prec is not None or self._val >= depth:
        return self
    rel = depth - self._val
    return Scalar._laurent(self.spec, self._val,
                           {k: c for k, c in self._unit.items()
                            if k < rel})


def ref_cap(self):
    cap = self.spec.precision_cap
    if self.is_ring_zero():
        return self
    if self.spec.kind == PADIC:
        v = self.valuation()
        prec = cap if self._prec is None else min(self._prec, cap)
        u = _unit_mod(self, prec)
        return Scalar(self.spec, *_times_q_pow(u, self.spec.residue_prime,
                                               v), val=v, prec=prec)
    prec = cap if self._prec is None else min(self._prec, cap)
    return Scalar._laurent(self.spec, self._val,
                           {k: c for k, c in self._unit.items()
                            if k < prec}, prec)


# exact sums with terms on both sides of the cuts, and quotients (capped)
_LONG = " + ".join(f"t^{k}" for k in range(-3, 90, 4))
_CUT_CASES = {
    "Q3": (Q3, ["1", "-7/5*3^-2", "2/7*3^3", "1/4", "1 + 3^50",
                "-1/10*3^45"]),
    "Q5": (Q5, ["3", "1/6*5^-1", "-2*5^4", "1 + 5^39", "7/13"]),
    "F2T": (F2T, ["1", "t^-2 + t", _LONG, "1/(1 + t)",
                  "t^3/(1 + t + t^5)"]),
    "F4T": (F4T, ["w", "w*t^-1 + t^2", f"w*t^2*({_LONG})", "w/(w + t)"]),
    "RF2": (RF2, ["u1", "u1 + t/(1 + u1)", f"u2*({_LONG}) + u1*t^5",
                  "1/(u2 + t)"]),
}


def _cut_inputs(spec, literals):
    """The zero, each literal exact, and each literal capped both below
    and above the field's precision cap."""
    out = [Scalar.zero(spec)]
    for lit in literals:
        x = scalar_from_literal(spec, lit)
        out.append(x)
        for prec in (3, spec.precision_cap + 20):
            if spec.kind == PADIC:
                out.append(Scalar(spec, x._num, x._den, prec=prec))
            else:
                out.append(Scalar._laurent(spec, x.valuation(),
                                           x.unit_part(), prec))
    return out


@pytest.mark.parametrize("name", sorted(_CUT_CASES))
def test_cap_and_reduce_representative_match_their_old_bodies(name):
    spec, literals = _CUT_CASES[name]
    for x in _cut_inputs(spec, literals):
        got, want = x.cap(), ref_cap(x)
        assert got == want and got.precision == want.precision, x
        v = x.valuation()
        depths = [-5, 0, 1, 7, 60] if v is None \
            else [v - 1, v, v + 1, v + 7, v + 60]
        for depth in depths:
            got = x.reduce_representative(depth)
            want = ref_reduce_representative(x, depth)
            assert got == want and got.precision == want.precision, \
                (x, depth)
