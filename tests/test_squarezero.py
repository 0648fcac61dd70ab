"""Dual-number product, max norm and the reduction to the base."""

import random
from fractions import Fraction

from nonarch import (Cmp, FieldSpec, LogNorm, RadiusDecl, Scalar, TateSeries,
                     SquareZeroRing, ln_compare, ln_mul)
from nonarch.fields import FQ_LAURENT, PADIC
from nonarch.series import LAURENT

Q3 = FieldSpec(PADIC, 3, precision_cap=40)
F2T = FieldSpec(FQ_LAURENT, 2, field_size=2, precision_cap=64)
R1 = RadiusDecl.default("r1")


def test_nilpotents_square_to_zero():
    R = SquareZeroRing(Scalar.one(Q3))
    for b in (1, 7, Fraction(2, 3)):
        x = R.elem(Scalar.zero(Q3), Scalar.from_fraction(Q3, b))
        assert (x * x).equals(R.zero())


def test_unit_and_reduction():
    R = SquareZeroRing(Scalar.one(Q3))
    y = R.elem(Scalar.from_int(Q3, 5), Scalar.from_int(Q3, 2))
    assert (R.one() * y).equals(y)
    assert y.a.equals(Scalar.from_int(Q3, 5))
    a, b = Scalar.from_int(Q3, 6), Scalar.from_int(Q3, 7)
    assert (R.embed(a) * R.embed(b)).a.equals(a * b)


def test_dual_number_product_over_series():
    RS = SquareZeroRing(TateSeries.one(Q3, (R1,), kind=LAURENT))
    T = TateSeries.monomial(Q3, (R1,), (1,), Scalar.one(Q3), LAURENT)
    e = RS.elem(T, RS.base_one)
    sq = e * e
    assert sq.a.equals(T * T)
    assert sq.b.equals(T + T)


def test_norm_is_component_max():
    R = SquareZeroRing(Scalar.one(Q3))
    x = R.elem(Scalar.from_int(Q3, 3), Scalar.one(Q3))
    assert x.norm_ln() == LogNorm.identity(0)
    assert R.zero().norm_ln().is_zero
    only_b = R.elem(Scalar.zero(Q3), Scalar.from_int(Q3, 9))
    assert only_b.norm_ln() == LogNorm.of(2)


def _rand_scalar(rng, spec):
    if spec.kind == PADIC:
        return Scalar.from_fraction(
            spec, Fraction(rng.randint(1, 40), rng.choice([1, 2, 3, 9, 27])))
    return Scalar.t_power(spec, rng.randint(-3, 4))


def _rand_series(rng, spec):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[(rng.randint(-2, 3),)] = _rand_scalar(rng, spec)
    return TateSeries(spec, LAURENT, (R1,), terms)


def test_ring_axioms_randomised():
    rng = random.Random(3)
    for spec in (Q3, F2T):
        scalar_ring = SquareZeroRing(Scalar.one(spec))
        series_ring = SquareZeroRing(TateSeries.one(spec, (R1,),
                                                    kind=LAURENT))
        for trial in range(120):
            ring = series_ring if trial % 2 else scalar_ring
            rand = (lambda: _rand_series(rng, spec)) if trial % 2 \
                else (lambda: _rand_scalar(rng, spec))
            x = ring.elem(rand(), rand())
            y = ring.elem(rand(), rand())
            z = ring.elem(rand(), rand())
            assert ((x * y) * z).equals(x * (y * z))
            assert (x * (y + z)).equals(x * y + x * z)
            nx, ny, nxy = x.norm_ln(), y.norm_ln(), (x * y).norm_ln()
            if not nxy.is_zero:
                assert ln_compare(nxy, ln_mul(nx, ny), (R1,)) is not Cmp.GT
            assert ring.embed(x.a).norm_ln() \
                == x.a.norm_ln().pad(len(ring.radii))
