"""Truncated series arithmetic, Gauss norms and the spectral formula."""

import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from nonarch import (Cmp, FieldSpec, IncompatibleContext, LogNorm,
                     PreconditionFailed, RadiusDecl, Scalar, TateSeries,
                     UndecidableAtDepth, ln_compare, ln_mul,
                     spectral_power_estimate, spectral_radius_laurent)
from nonarch.fields import FQ_LAURENT, PADIC
from nonarch.lognorm import ln_max
from nonarch.series import LAURENT, POWER, SUPPORT_CAP

Q3 = FieldSpec(PADIC, 3, precision_cap=40)
Q5 = FieldSpec(PADIC, 5, precision_cap=40)
F2T = FieldSpec(FQ_LAURENT, 2, field_size=2, precision_cap=64)
R1 = RadiusDecl.default("r1")


def mono(exp, coeff, kind=POWER, spec=Q3):
    return TateSeries.monomial(spec, (R1,), exp,
                               Scalar.from_fraction(spec, Fraction(coeff)),
                               kind)


def test_ring_examples():
    T = mono(1, 1)
    assert (T + (-T)).is_ring_zero()
    prod = mono(1, 3) * T
    assert prod.sorted_terms() == [((2,), Scalar.from_int(Q3, 3))]
    assert (T * TateSeries.zero(Q3, (R1,))).is_ring_zero()


def test_incompatible_contexts():
    other = RadiusDecl.default("r2")
    f = TateSeries.monomial(Q3, (other,), 1, Scalar.one(Q3))
    with pytest.raises(IncompatibleContext):
        mono(1, 1) + f
    with pytest.raises(IncompatibleContext):
        mono(1, 1, kind=LAURENT) + mono(1, 1, kind=POWER)


def test_power_series_reject_negative_exponents():
    with pytest.raises(ValueError):
        TateSeries.monomial(Q3, (R1,), -1, Scalar.one(Q3), POWER)


def test_gauss_norm_examples():
    z, exact = TateSeries.zero(Q3, (R1,)).gauss_norm()
    assert z.is_zero and exact
    f = mono(1, 3) + mono(2, 1)
    n, exact = f.gauss_norm()
    assert exact and n == LogNorm.of(0, (2,))
    c, exact = TateSeries.constant(
        Q3, (R1,), Scalar.from_int(Q3, 3)).gauss_norm()
    assert exact and c == LogNorm.of(1, (0,))


def test_gauss_norm_inexact_flag():
    f = TateSeries(Q3, POWER, (R1,), {(2,): Scalar.one(Q3)},
                   LogNorm.of(0, (1,)))
    n, exact = f.gauss_norm()
    assert n == LogNorm.of(0, (2,)) and not exact
    g = TateSeries(Q3, POWER, (R1,), {(1,): Scalar.one(Q3)},
                   LogNorm.of(0, (5,)))
    n2, exact2 = g.gauss_norm()
    assert n2 == LogNorm.of(0, (1,)) and exact2


def test_spectral_examples():
    aTi = mono((-2,), 3, kind=LAURENT)
    n, exact = spectral_radius_laurent(aTi)
    assert exact and n == LogNorm.of(1, (-2,))
    f = mono(1, 1, kind=LAURENT) + mono((-1,), 1, kind=LAURENT)
    n, exact = spectral_radius_laurent(f)
    assert exact and n == LogNorm.of(0, (-1,))
    one = TateSeries.one(Q3, (R1,), kind=LAURENT)
    n, _ = spectral_radius_laurent(one)
    assert n.is_identity()
    with pytest.raises(PreconditionFailed):
        spectral_radius_laurent(mono(1, 1, kind=POWER))


def test_spectral_power_estimates():
    f = mono(1, 3, kind=LAURENT)
    assert spectral_power_estimate(f, 4) == LogNorm.of(1, (1,))
    f2 = mono(1, 1, kind=LAURENT) + mono((-1,), 1, kind=LAURENT)
    assert spectral_power_estimate(f2, 2) == LogNorm.of(0, (-1,))
    one = TateSeries.one(Q3, (R1,), kind=LAURENT)
    for power in (1, 2, 5):
        assert spectral_power_estimate(one, power).is_identity()


def test_truncate_examples():
    f = mono(2, 1) + mono(4, 1) + mono(11, 1)
    head, tail = f.truncate(4)
    assert sorted(e[0] for e in head.support) == [2, 4]
    n, exact = tail.gauss_norm()
    assert exact and n == LogNorm.of(0, (11,))
    full, rest = f.truncate(10 ** 9)
    assert full.equals(f) and rest.is_ring_zero()


def test_pruning_folds_into_tail():
    f = mono(0, 1) + mono(1, 1) + mono(2, 1) + mono(3, 1)
    pr = f.pruned(2)
    assert len(pr.support) == 2
    # dropped terms have the smallest norms (largest exponents for r < 1)
    assert sorted(e[0] for e in pr.support) == [0, 1]
    assert pr.tail == LogNorm.of(0, (2,))
    n, exact = pr.gauss_norm()
    assert exact and n == LogNorm.identity(1)


def test_add_norm_bounded_by_max():
    rng = random.Random(5)
    for _ in range(60):
        f = _random_series(rng, Q3)
        g = _random_series(rng, Q3)
        nf, _ = f.gauss_norm()
        ng, _ = g.gauss_norm()
        ns, _ = (f + g).gauss_norm()
        if ns.is_zero:
            continue
        bound = nf if (ng.is_zero or (not nf.is_zero and ln_compare(
            nf, ng, (R1,)) is Cmp.GT)) else ng
        assert ln_compare(ns, bound, (R1,)) is not Cmp.GT


def _random_series(rng, spec):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        if spec.kind == PADIC:
            c = Scalar.from_fraction(
                spec, Fraction(rng.randint(1, 9), rng.choice([1, 2, 3, 9])))
        else:
            c = Scalar.t_power(spec, rng.randint(-2, 4))
        terms[(rng.randint(-4, 5),)] = c
    return TateSeries(spec, LAURENT, (R1,), terms)


@pytest.mark.parametrize("spec", [Q3, F2T], ids=["Q3", "F2((t))"])
def test_gauss_multiplicative_random(spec):
    rng = random.Random(11)
    done = 0
    while done < 120:
        f = _random_series(rng, spec)
        g = _random_series(rng, spec)
        if f.is_ring_zero() or g.is_ring_zero():
            continue
        nf, _ = f.gauss_norm()
        ng, _ = g.gauss_norm()
        nfg, _ = (f * g).gauss_norm()
        assert nfg == ln_mul(nf, ng)
        done += 1


def test_json_roundtrip():
    f = mono(1, 3, kind=LAURENT) + mono((-1,), 2, kind=LAURENT)
    obj = f.to_json()
    back = TateSeries.from_json(Q3, (R1,), obj)
    assert back.equals(f)
    assert obj["tail"] == {"zero": True}


def test_two_variable_series():
    # the multi-index model: same weighted-maximum formula in two radii
    r2 = RadiusDecl.quadratic("r2", 0, 1, 2, 3)   # log(1/r2) = sqrt(3)/2
    radii = (R1, r2)
    a = Scalar.from_int(Q3, 3)
    f = TateSeries.monomial(Q3, radii, (2, -1), a, kind=LAURENT)
    n, exact = spectral_radius_laurent(f)
    assert exact and n == LogNorm.of(1, (2, -1))
    for power in (1, 2, 3):
        assert spectral_power_estimate(f, power) == n
    g = TateSeries.monomial(Q3, radii, (0, 1), Scalar.one(Q3), kind=LAURENT)
    nf, _ = f.gauss_norm()
    ng, _ = g.gauss_norm()
    nfg, _ = (f * g).gauss_norm()
    assert nfg == ln_mul(nf, ng) == LogNorm.of(1, (2, 0))
    s = f + g
    ns, exact_s = s.gauss_norm()
    # |g| = r2 = 3^(-0.866...) beats |f| = 3^(-1 - 2*0.707 + 0.866)
    assert exact_s and ns == LogNorm.of(0, (0, 1))


def _random_capped_series(rng, spec, kind):
    """Series with some capped coefficients and tails, so that sums can
    lose terms to the working precision and fold them into the tail."""
    terms = {}
    lo = 0 if kind == POWER else -3
    for _ in range(rng.randint(0, 5)):
        if spec.kind == PADIC:
            c = Scalar(spec, rng.choice([1, -1, 2, 8, -8]),
                       rng.choice([1, 3]), prec=rng.choice([None, None, 2, 4]))
        else:
            c = Scalar.t_power(spec, rng.randint(-2, 3))
            if rng.random() < 0.3:
                c = c + Scalar.t_power(spec, rng.randint(-2, 3))
                if c.is_ring_zero():
                    continue
        terms[(rng.randint(lo, 4),)] = c
    tail = None
    if rng.random() < 0.3:
        tail = LogNorm.of(rng.randint(0, 4), (rng.randint(4, 8),))
    return TateSeries(spec, kind, (R1,), terms, tail)


@pytest.mark.parametrize("spec", [Q3, F2T], ids=["Q3", "F2((t))"])
@pytest.mark.parametrize("kind", [POWER, LAURENT])
def test_trusted_results_match_validated_construction(spec, kind):
    rng = random.Random(29)
    for _ in range(150):
        f = _random_capped_series(rng, spec, kind)
        g = _random_capped_series(rng, spec, kind)
        for r in (f * g, f + g, f - g, -f):
            v = TateSeries(r.spec, r.kind, r.radii, r.support, r.tail)
            assert (r.spec, r.kind, r.radii) == (v.spec, v.kind, v.radii)
            assert r.support == v.support and r.tail == v.tail
            assert all(type(e) is tuple and len(e) == 1
                       and all(type(x) is int for x in e)
                       for e in r.support)
            assert not any(c.is_ring_zero() for c in r.support.values())


def test_sums_and_products_fold_lost_terms_into_the_tail():
    # a coefficient that cancels below its precision leaves the support,
    # and its bound q^-2 * r becomes the tail
    c, m, one = Scalar(Q3, 1, 1, prec=2), Scalar(Q3, -1, 1, prec=2), \
        Scalar.one(Q3)
    f = TateSeries(Q3, POWER, (R1,), {(0,): one, (1,): c})
    g = TateSeries(Q3, POWER, (R1,), {(1,): m})
    h = TateSeries(Q3, POWER, (R1,), {(0,): one, (1,): one})
    k = TateSeries(Q3, POWER, (R1,), {(0,): m, (1,): one})
    for r in (f + g, h * k):
        assert (1,) not in r.support and r.tail == LogNorm.of(2, (1,))


# ---------------------------------------------------------------------------
# TateSeries.pow_int against scalar-by-scalar powers


def _oracle_pow(f, k):
    """f^k by TateSeries products, as pow_int computed it before exact
    p-adic series got their integer kernel."""
    out = TateSeries.one(f.spec, f.radii, f.kind)
    base = f
    while k:
        if k & 1:
            out = out * base
        base = base * base if k > 1 else base
        k >>= 1
    return out


def _assert_same_power(f, k):
    got, want = f.pow_int(k), _oracle_pow(f, k)
    assert list(got.support) == list(want.support)
    assert got.support == want.support     # values and precisions
    assert got.tail == want.tail
    assert (got.spec, got.kind, got.radii) == (want.spec, want.kind,
                                               want.radii)


R2 = RadiusDecl.quadratic("r2", 0, 1, 2, 3)     # log_q(1/r2) = sqrt(3)/2
# log_q(1/r1s) = 1/2 + log_q(1/r1): comparisons over r1 and r1s are exact
R1S = RadiusDecl.quadratic("r1s", 1, 1, 2, 2)
R06S = RadiusDecl.rational_stub("r06", Fraction(3, 5))


@st.composite
def _exact_padic_series(draw):
    spec = draw(st.sampled_from([Q3, Q5]))
    kind = draw(st.sampled_from([POWER, LAURENT]))
    radii = draw(st.sampled_from([(R1,), (R1, R2)]))
    lo = 0 if kind == POWER else -3
    exps = st.tuples(*[st.integers(lo, lo + 6) for _ in radii])
    terms = draw(st.dictionaries(exps, st.tuples(
        st.integers(-20, 20).filter(bool), st.sampled_from([1, 2, 3, 7, 9]),
        st.integers(-3, 3)), max_size=25))
    q = spec.residue_prime
    return TateSeries(spec, kind, radii, {
        e: Scalar.from_fraction(spec, Fraction(n, d) * Fraction(q) ** v)
        for e, (n, d, v) in terms.items()})


@settings(max_examples=60, deadline=None)
@given(f=_exact_padic_series(), k=st.integers(0, 6))
def test_pow_matches_scalar_products(f, k):
    _assert_same_power(f, k)


def test_pow_drops_cancelled_terms():
    x = TateSeries.from_terms(Q3, (R1,), [(0, 1), (1, 2), (2, -2)])
    sq = x.pow_int(2)
    assert (2,) not in sq.support                  # 2*(1*-2) + 2^2 = 0
    _assert_same_power(x, 2)
    _assert_same_power(x, 5)


def test_pow_of_capped_or_tailed_series_keeps_scalar_path():
    capped = TateSeries(Q3, POWER, (R1,), {
        (0,): Scalar.one(Q3), (1,): Scalar(Q3, 2, 7, prec=3)})
    tailed = TateSeries(Q3, POWER, (R1,), {
        (0,): Scalar.one(Q3), (1,): Scalar.from_int(Q3, 2)},
        LogNorm.of(1, (3,)))
    for f in (capped, tailed):
        for k in (1, 2, 3):
            _assert_same_power(f, k)
    assert not capped.pow_int(3).support[(3,)].exact
    assert not tailed.pow_int(2).tail.is_zero


@pytest.mark.parametrize("k", [0, 3])
def test_pow_of_zero_series(k):
    z = TateSeries.zero(Q5, (R1,), LAURENT)
    _assert_same_power(z, k)
    assert z.pow_int(k).is_ring_zero() is (k > 0)


def test_negative_series_power_refused():
    # the square-and-multiply loops never end on k < 0
    x = TateSeries.monomial(Q3, (R1,), 1, Scalar.one(Q3), LAURENT)
    with pytest.raises(ValueError):
        x.pow_int(-1)


def test_pow_past_support_cap_prunes_like_scalar_path():
    # the exponents (i, i^2) have pairwise distinct sums, so the square has
    # 91 * 92 / 2 > SUPPORT_CAP terms, each c^2 or 2*c*c' and so a unit;
    # then no two terms tie over r1 and r1s, and the pruning decides every
    # comparison exactly
    f = TateSeries.from_terms(Q3, (R1, R1S), [
        ((i, i * i), Fraction(1, 2 + 5 * (i % 2))) for i in range(91)])
    sq = f.pow_int(2)
    assert len(sq.support) == SUPPORT_CAP and not sq.tail.is_zero
    _assert_same_power(f, 2)


# ---------------------------------------------------------------------------
# Pruning by exact keys against the comparison sort it replaced


def _oracle_pruned(f, cap):
    """Keep the `cap` largest-norm terms; fold the rest into the tail."""
    if len(f.support) <= cap:
        return f
    keyed = []
    for e in f.support:
        keyed.append((f.term_norm(e), e))
    # smallest norms first; lexicographic exponent order breaks ties
    order = sorted(keyed, key=lambda t: t[1])
    order.sort(key=cmp_to_key(
        lambda x, y: ln_compare(x[0], y[0], f.radii).value))
    drop = len(f.support) - cap
    tail = f.tail
    support = dict(f.support)
    for n, e in order[:drop]:
        tail = ln_max(tail, n, f.radii)
        del support[e]
    return TateSeries(f.spec, f.kind, f.radii, support, tail)


def _assert_prunes_like_oracle(f, cap):
    got, want = f.pruned(cap), _oracle_pruned(f, cap)
    assert list(got.support) == list(want.support)
    assert got.support == want.support
    assert got.tail == want.tail
    assert len(got.support) == min(cap, len(f.support))


def test_pruning_over_twin_radii_does_not_fail_on_ties():
    # r1 declared twice: x and y have exactly equal norms, which
    # ln_compare cannot order
    a, b = RadiusDecl.default("r1"), RadiusDecl.default("r1")
    f = TateSeries.from_terms(Q3, (a, b), [
        ((0, 0), 1), ((1, 0), 1), ((0, 1), 1),
        ((2, 0), 1), ((1, 1), 1), ((0, 2), 1)])
    with pytest.raises(UndecidableAtDepth):
        _oracle_pruned(f, 3)
    pr = f.pruned(3)
    # the three degree-2 terms tie; they go in exponent order
    assert sorted(pr.support) == [(0, 0), (0, 1), (1, 0)]
    assert pr.tail == LogNorm.of(0, (2, 0))
    pr = f.pruned(4)
    assert sorted(pr.support) == [(0, 0), (0, 1), (1, 0), (2, 0)]
    assert pr.tail == LogNorm.of(0, (1, 1))
    # the old tail ties with the largest dropped norm: either is the max
    g = TateSeries(Q3, POWER, (a, b), f.support, LogNorm.of(0, (0, 2)))
    assert g.pruned(3).tail in (LogNorm.of(0, (0, 2)), LogNorm.of(0, (2, 0)))


def test_pruning_with_stub_ties_falls_back_to_exponent_order():
    stub = RadiusDecl.rational_stub("r06", Fraction(3, 5))
    # 3^-3 * r^0 and 3^0 * r^5 are equal: 5 * 3/5 = 3
    f = TateSeries(Q3, POWER, (stub,), {(0,): Scalar.from_int(Q3, 27),
                                        (5,): Scalar.one(Q3),
                                        (1,): Scalar.one(Q3)})
    with pytest.raises(UndecidableAtDepth):
        _oracle_pruned(f, 1)
    pr = f.pruned(1)
    assert sorted(pr.support) == [(1,)]
    assert pr.tail in (LogNorm.of(3, (0,)), LogNorm.of(0, (5,)))


@pytest.mark.parametrize("radii", [(R1,), (R1, R1S), (R1, R2), (R06S,)],
                         ids=["r1", "r1-r1s", "mixed-d", "stub"])
def test_pruning_matches_comparison_sort_where_it_decides(radii):
    rng = random.Random(4242)
    decided = 0
    for _ in range(80):
        terms = {}
        for _ in range(rng.randint(1, 40)):
            e = tuple(rng.randint(0, 9) for _ in radii)
            terms[e] = Scalar.from_fraction(
                Q3, Fraction(rng.choice([1, 2, 5, 7]),
                             rng.choice([1, 2])) * Fraction(3) ** rng.randint(-2, 3))
        tail = None
        if rng.random() < 0.5:
            tail = LogNorm.of(rng.randint(-2, 4),
                              [rng.randint(0, 12) for _ in radii])
        f = TateSeries(Q3, POWER, radii, terms, tail)
        cap = rng.randint(1, len(terms))
        try:
            _oracle_pruned(f, cap)
        except UndecidableAtDepth:
            f.pruned(cap)       # decided here all the same
            continue
        _assert_prunes_like_oracle(f, cap)
        decided += 1
    assert decided > 40


def test_pow_past_support_cap_prunes_like_comparison_sort():
    # the square of the series in the test above, before its pruning
    f = TateSeries.from_terms(Q3, (R1, R1S), [
        ((i, i * i), Fraction(1, 2 + 5 * (i % 2))) for i in range(91)])
    products = {}
    for e1, c1 in f.support.items():
        for e2, c2 in f.support.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            products[e] = products[e] + c1 * c2 if e in products else c1 * c2
    sq = TateSeries(Q3, POWER, (R1, R1S), products)
    assert len(sq.support) > SUPPORT_CAP
    _assert_prunes_like_oracle(sq, SUPPORT_CAP)
    pr, got = sq.pruned(SUPPORT_CAP), f.pow_int(2)
    assert got.support == pr.support and got.tail == pr.tail
