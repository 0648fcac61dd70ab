"""Truncated series arithmetic, Gauss norms and the spectral formula."""

import collections
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from nonarch import (Cmp, FieldSpec, IncompatibleContext, LogNorm,
                     NonarchError, PreconditionFailed, RadiusDecl, Scalar,
                     SupportCapExceeded, TateSeries, ln_compare, ln_mul,
                     ln_pow, spectral_power_estimates,
                     spectral_radius_laurent)
from nonarch.fields import FQ_LAURENT, PADIC, RATFUN_LAURENT
from nonarch.linalg import MAX_WORK
from nonarch.lognorm import ln_max
from nonarch import series
from nonarch.series import LAURENT, POWER, SUPPORT_CAP

Q3 = FieldSpec(PADIC, 3, precision_cap=40)
Q5 = FieldSpec(PADIC, 5, precision_cap=40)
F2T = FieldSpec(FQ_LAURENT, 2, field_size=2, precision_cap=64)
F4T = FieldSpec(FQ_LAURENT, 2, field_size=4, precision_cap=64)
RF2 = FieldSpec(RATFUN_LAURENT, 2, nvars=3, precision_cap=64)
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
    assert spectral_power_estimates(f, 4) == [LogNorm.of(1, (1,))] * 4
    f2 = mono(1, 1, kind=LAURENT) + mono((-1,), 1, kind=LAURENT)
    assert spectral_power_estimates(f2, 2) == [LogNorm.of(0, (-1,))] * 2
    one = TateSeries.one(Q3, (R1,), kind=LAURENT)
    assert all(n.is_identity() for n in spectral_power_estimates(one, 5))


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
    assert spectral_power_estimates(f, 3) == [n] * 3
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
# Power estimates against the square-and-multiply schedule they replaced


def _oracle_pow(f, k):
    """f^k by TateSeries products, square-and-multiply from the low bit."""
    out = TateSeries.one(f.spec, f.radii, f.kind)
    base = f
    while k:
        if k & 1:
            out = out * base
        base = base * base if k > 1 else base
        k >>= 1
    return out


def _oracle_estimates(f, count):
    """||f^l||^(1/l) for l = 1..count, each f^l raised from scratch."""
    if not f.is_exact():
        raise PreconditionFailed("power estimate needs an exact series")
    out = []
    for l in range(1, count + 1):
        fl = _oracle_pow(f, l)
        if not fl.is_exact():
            raise SupportCapExceeded(
                f"support of f^{l} exceeded the cap; the estimate would "
                "not be exact")
        n, _ = fl.gauss_norm()
        out.append(n if n.is_zero else ln_pow(n, Fraction(1, l)))
    return out


def _assert_same_estimates(f, count):
    """spectral_power_estimates(f, count) gives the oracle's list, or
    raises its exception class with its message; returns that exception,
    or None."""
    try:
        want = _oracle_estimates(f, count)
    except NonarchError as exc:
        with pytest.raises(NonarchError) as got:
            spectral_power_estimates(f, count)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return exc
    assert spectral_power_estimates(f, count) == want
    return None


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
@given(f=_exact_padic_series(), count=st.integers(1, 6))
def test_pow_matches_scalar_products(f, count):
    _assert_same_estimates(f, count)


def test_pow_drops_cancelled_terms():
    x = TateSeries.from_terms(Q3, (R1,), [(0, 1), (1, 2), (2, -2)])
    assert (2,) not in (x * x).support            # 2*(1*-2) + 2^2 = 0
    assert _assert_same_estimates(x, 8) is None


def test_pow_of_capped_or_tailed_series_keeps_scalar_path():
    capped = TateSeries(Q3, POWER, (R1,), {
        (0,): Scalar.one(Q3), (1,): Scalar(Q3, 2, 7, prec=3)})
    tailed = TateSeries(Q3, POWER, (R1,), {
        (0,): Scalar.one(Q3), (1,): Scalar.from_int(Q3, 2)},
        LogNorm.of(1, (3,)))
    assert _assert_same_estimates(capped, 3) is None
    assert isinstance(_assert_same_estimates(tailed, 3), PreconditionFailed)
    assert not (capped * capped * capped).support[(3,)].exact
    assert not (tailed * tailed).tail.is_zero


@pytest.mark.parametrize("k", [0, 3])
def test_pow_of_zero_series(k):
    z = TateSeries.zero(Q5, (R1,), LAURENT)
    assert (z * z).is_ring_zero()
    assert _assert_same_estimates(z, k + 1) is None
    assert spectral_power_estimates(z, k + 1) == [LogNorm.zero(1)] * (k + 1)


def test_negative_series_power_refused():
    # no power below l = 1 is estimated
    x = TateSeries.monomial(Q3, (R1,), 1, Scalar.one(Q3), LAURENT)
    for count in (0, -1):
        with pytest.raises(ValueError):
            spectral_power_estimates(x, count)


def test_pow_past_support_cap_prunes_like_scalar_path():
    # the exponents (i, i^2) have pairwise distinct sums, so the square has
    # 91 * 92 / 2 > SUPPORT_CAP terms, each c^2 or 2*c*c' and so a unit;
    # then no two terms tie over r1 and r1s, and the pruning decides every
    # comparison exactly
    f = TateSeries.from_terms(Q3, (R1, R1S), [
        ((i, i * i), Fraction(1, 2 + 5 * (i % 2))) for i in range(91)])
    sq = f * f
    assert len(sq.support) == SUPPORT_CAP and not sq.tail.is_zero
    exc = _assert_same_estimates(f, 3)
    assert isinstance(exc, SupportCapExceeded) and "f^2 " in str(exc)


# the Laurent field of characteristic 3: a square keeps its cross terms
F3T = FieldSpec(FQ_LAURENT, 3, field_size=3, precision_cap=64)
# coefficient literals per field, and the same fields at precision cap 3,
# where c.cap() keeps three t-adic (3-adic) digits of c
_LITERALS = {
    Q3: ["1", "-1", "2/3", "9", "4/5", "-8", "1/27"],
    Q5: ["1", "-2", "3/5", "25", "7/3", "-1/5"],
    F2T: ["1", "t", "1 + t", "t^-1 + t^2", "t^3"],
    F4T: ["w", "w + 1", "w*t + 1", "t^-1", "1 + t^2"],
    RF2: ["u1", "1 + u2", "u1*t + u3", "t/(1 + u1)", "t^-1"],
}
_CAPPED = {spec: FieldSpec(spec.kind, spec.residue_prime,
                           field_size=spec.field_size, nvars=spec.nvars,
                           precision_cap=3)
           for spec in (Q3, F2T, F4T)}


def _random_oracle_series(rng, spec, radii, capped=False):
    kind = rng.choice([POWER, LAURENT])
    lo = 0 if kind == POWER else -2
    if capped:
        cspec, spec = spec, _CAPPED[spec]
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = tuple(rng.randint(lo, lo + 4) for _ in radii)
        c = TateSeries.from_terms(spec, radii, [
            (e, rng.choice(_LITERALS[cspec if capped else spec]))],
            kind).support
        if c and capped and rng.random() < 0.7:
            c = {e: c[e].cap()}
        terms.update(c)
    return TateSeries(spec, kind, radii, terms)


def test_power_estimates_match_square_and_multiply():
    rng = random.Random(2929)
    seen = collections.Counter()
    cases = [(spec, radii, False) for spec in (Q3, Q5)
             for radii in ((R1,), (R1, R2))]
    cases += [(spec, (R1,), False) for spec in (F2T, F4T, RF2)]
    cases += [(spec, (R1,), True) for spec in (Q3, F2T, F4T)]
    for spec, radii, capped in cases:
        for _ in range(25):
            f = _random_oracle_series(rng, spec, radii, capped)
            exc = _assert_same_estimates(f, rng.randint(1, 8))
            capped_in = any(not c.exact for c in f.support.values())
            seen[spec.kind, len(radii), capped_in,
                 type(exc).__name__] += 1
    # every field with one radius, and the p-adic ones with two, exact
    for kind in (PADIC, FQ_LAURENT, RATFUN_LAURENT):
        assert seen[kind, 1, False, "NoneType"]
    assert seen[PADIC, 2, False, "NoneType"]
    # capped coefficients that stay exact through every product, and ones
    # whose sums exhaust their precision
    for kind in (PADIC, FQ_LAURENT):
        assert seen[kind, 1, True, "NoneType"]
        assert seen[kind, 1, True, "SupportCapExceeded"]
    # the cancelling sums of the golden q3-spectral-cancelling-powers case
    cancelling = TateSeries.from_terms(Q3, (R1,), [(0, 1), (1, 2), (2, -2)],
                                       LAURENT)
    assert _assert_same_estimates(cancelling, 8) is None
    # past SUPPORT_CAP at l = 2 on the integer path and on the series path
    for spec in (Q3, F3T):
        f = TateSeries.from_terms(spec, (R1, R1S), [
            ((i, i * i), 1) for i in range(91)])
        exc = _assert_same_estimates(f, 3)
        assert isinstance(exc, SupportCapExceeded) and "f^2 " in str(exc)


def test_power_work_cap_boundary(monkeypatch):
    # f = 3x + x^2: f^l has l + 1 terms, so powers 2..L take
    # sum over l < L of 2(l + 1) = (L - 1)(L + 2) term products
    f = TateSeries.from_terms(Q3, (R1,), [(1, 3), (2, 1)])
    last = max(n for n in range(1, 2000) if (n - 1) * (n + 2) <= MAX_WORK)
    assert last == 999
    with pytest.raises(PreconditionFailed, match="work cap"):
        spectral_power_estimates(f, last + 1)
    # the box (l*span + 1) bounds a sparse series: 40 terms over a span of
    # 117 take 40 * (40 + 235 + ...) products, not 40^l
    g = TateSeries.from_terms(Q3, (R1,), [(3 * i, 1) for i in range(40)])
    assert len(spectral_power_estimates(g, 6)) == 6
    # the same boundary under a work cap of 9 * 12 = 108 products
    monkeypatch.setattr(series, "MAX_WORK", 108)
    assert len(spectral_power_estimates(f, 10)) == 10
    with pytest.raises(PreconditionFailed, match="work cap of 108$"):
        spectral_power_estimates(f, 11)


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
    support = dict(f.support)
    for _, e in order[:drop]:
        del support[e]
    # the largest dropped norm is the last one dropped; the old tail is
    # kept on a tie
    tail = ln_max(f.tail, order[drop - 1][0], f.radii)
    return TateSeries(f.spec, f.kind, f.radii, support, tail)


def _assert_prunes_like_oracle(f, cap):
    got, want = f.pruned(cap), _oracle_pruned(f, cap)
    assert list(got.support) == list(want.support)
    assert got.support == want.support
    assert got.tail == want.tail
    assert len(got.support) == min(cap, len(f.support))


def test_pruning_over_twin_radii_does_not_fail_on_ties():
    # r1 declared twice: x and y have exactly equal norms, which
    # ln_compare orders EQ
    a, b = RadiusDecl.default("r1"), RadiusDecl.default("r1")
    f = TateSeries.from_terms(Q3, (a, b), [
        ((0, 0), 1), ((1, 0), 1), ((0, 1), 1),
        ((2, 0), 1), ((1, 1), 1), ((0, 2), 1)])
    assert ln_compare(f.term_norm((1, 0)), f.term_norm((0, 1)),
                      (a, b)) is Cmp.EQ
    _assert_prunes_like_oracle(f, 3)
    pr = f.pruned(3)
    # the three degree-2 terms tie; they go in exponent order, and the
    # tail is the last of them dropped
    assert sorted(pr.support) == [(0, 0), (0, 1), (1, 0)]
    assert pr.tail == LogNorm.of(0, (2, 0))
    _assert_prunes_like_oracle(f, 4)
    pr = f.pruned(4)
    assert sorted(pr.support) == [(0, 0), (0, 1), (1, 0), (2, 0)]
    assert pr.tail == LogNorm.of(0, (1, 1))
    # the old tail ties with the largest dropped norm: it is kept
    g = TateSeries(Q3, POWER, (a, b), f.support, LogNorm.of(0, (0, 2)))
    _assert_prunes_like_oracle(g, 3)
    assert g.pruned(3).tail == LogNorm.of(0, (0, 2))


def test_pruning_with_stub_ties_falls_back_to_exponent_order():
    stub = RadiusDecl.rational_stub("r06", Fraction(3, 5))
    # 3^-3 * r^0 and 3^0 * r^5 are equal: 5 * 3/5 = 3
    f = TateSeries(Q3, POWER, (stub,), {(0,): Scalar.from_int(Q3, 27),
                                        (5,): Scalar.one(Q3),
                                        (1,): Scalar.one(Q3)})
    _assert_prunes_like_oracle(f, 1)
    pr = f.pruned(1)
    assert sorted(pr.support) == [(1,)]
    assert pr.tail == LogNorm.of(0, (5,))
    # dropping one of the tied pair: the first in exponent order goes
    pr = f.pruned(2)
    assert sorted(pr.support) == [(1,), (5,)]
    assert pr.tail == LogNorm.of(3, (0,))


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
    pr, got = sq.pruned(SUPPORT_CAP), f * f
    assert got.support == pr.support and got.tail == pr.tail
