"""p-th power decompositions, norm bounds and the derivative witness."""

import random

import pytest

from nonarch import (FieldSpec, LogNorm, PreconditionFailed, RadiusDecl,
                     Scalar, TateSeries, decomposition_artifact,
                     derivative_span_witness, pth_power_basis,
                     scalar_decompose, scalar_reconstruct, series_decompose,
                     series_reconstruct, termwise_tail_bound,
                     verify_norm_bound, scalar_from_literal)
from nonarch.fields import FQ_LAURENT, PADIC
from nonarch.series import POWER

F2T = FieldSpec(FQ_LAURENT, 2, field_size=2, precision_cap=64)
F4T = FieldSpec(FQ_LAURENT, 2, field_size=4, precision_cap=64)
R1 = RadiusDecl.default("r1")


def test_basis_validation():
    with pytest.raises(PreconditionFailed):
        pth_power_basis(FieldSpec(PADIC, 3))
    assert [x.to_literal() for x in pth_power_basis(F2T)] == ["1", "t"]


def test_scalar_decompose_examples():
    a = scalar_from_literal(F2T, "t^3 + t")
    parts = scalar_decompose(a)
    assert parts[0].is_ring_zero()
    assert parts[1].to_literal() == "1 + t"       # (t+1)^2 * t = t^3 + t
    assert scalar_reconstruct(parts).equals(a)
    one = scalar_decompose(Scalar.one(F2T))
    assert one[0].equals(Scalar.one(F2T)) and one[1].is_ring_zero()
    t = scalar_decompose(Scalar.t_power(F2T))
    assert t[0].is_ring_zero() and t[1].equals(Scalar.one(F2T))


def test_series_decompose_examples():
    f = TateSeries.from_terms(F2T, (R1,), [((1,), "t"), ((2,), "1")])
    parts = series_decompose(f)
    assert set(parts) == {((0,), 0), ((1,), 1)}
    assert parts[((0,), 0)].to_json()["terms"] == [{"exp": [1], "coeff": "1"}]
    assert parts[((1,), 1)].to_json()["terms"] == [{"exp": [0], "coeff": "1"}]
    assert series_reconstruct(parts, f).equals(f)
    assert series_decompose(TateSeries.zero(F2T, (R1,))) == {}
    fp = TateSeries.from_terms(F2T, (R1,), [((2,), "1")])
    pp = series_decompose(fp)
    assert set(pp) == {((0,), 0)}
    assert pp[((0,), 0)].to_json()["terms"] == [{"exp": [1], "coeff": "1"}]


def test_norm_bound_examples():
    a = scalar_from_literal(F2T, "t^3 + t")
    ratio, ok = verify_norm_bound(a)
    assert ok and ratio == LogNorm.identity(0)
    rt, ok2 = verify_norm_bound(Scalar.t_power(F2T))
    assert ok2 and rt == LogNorm.identity(0)
    with pytest.raises(PreconditionFailed):
        verify_norm_bound(Scalar.zero(F2T))


def test_derivative_span_examples():
    f = TateSeries.from_terms(F2T, (R1,), [((1,), "t"), ((2,), "1")])
    assert derivative_span_witness(f, series_decompose(f))   # f' = t
    fp = TateSeries.from_terms(F2T, (R1,), [((2,), "1")])
    assert derivative_span_witness(fp, series_decompose(fp))  # (T^p)' = 0
    assert derivative_span_witness(TateSeries.zero(F2T, (R1,)), {})


def _rand_scalar(spec, rng):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        terms[rng.randint(-5, 8)] = rng.randint(1, spec.field_size - 1)
    lits = []
    for e, code in sorted(terms.items()):
        digs = []
        c, i = code, 0
        while c:
            if c % spec.residue_prime:
                digs.append(f"w^{i}" if i > 1 else
                            ("w" if i else str(c % spec.residue_prime)))
            c //= spec.residue_prime
            i += 1
        coeff = "(" + "+".join(digs) + ")" if len(digs) > 1 else digs[0]
        lits.append(f"{coeff}*t^{e}")
    return scalar_from_literal(spec, "+".join(lits))


@pytest.mark.parametrize("spec", [F2T, F4T], ids=["F2((t))", "F4((t))"])
def test_random_roundtrips(spec):
    rng = random.Random(9)
    for _ in range(120):
        x = _rand_scalar(spec, rng)
        parts = scalar_decompose(x)
        assert scalar_reconstruct(parts).equals(x)
        ratio, ok = verify_norm_bound(x)
        assert ok and ratio == LogNorm.identity(0)
    for _ in range(60):
        sup = {}
        for _ in range(rng.randint(1, 5)):
            sup[(rng.randint(0, 9),)] = _rand_scalar(spec, rng)
        f = TateSeries(spec, POWER, (R1,), sup)
        parts = series_decompose(f)
        assert series_reconstruct(parts, f).equals(f)
        assert derivative_span_witness(f, parts)
        assert termwise_tail_bound(f)


def test_artifact():
    f = TateSeries.from_terms(F2T, (R1,), [((1,), "t"), ((2,), "1")])
    art = decomposition_artifact(f)
    assert art["round_trip_exact"] and art["derivative_span"]
    assert set(art["parts"]) == {"0,0", "1,1"}


def test_two_variable_decomposition():
    r2 = RadiusDecl.quadratic("r2", 0, 1, 2, 3)
    f = TateSeries.from_terms(F2T, (R1, r2),
                              [((1, 2), "t"), ((2, 1), "1"),
                               ((0, 0), "t^3")])
    parts = series_decompose(f)
    assert series_reconstruct(parts, f).equals(f)
    assert derivative_span_witness(f, parts)
    assert termwise_tail_bound(f)
    # e-residue grouping: (1,2) -> e=(1,0), (2,1) -> e=(0,1)
    assert ((1, 0), 1) in parts and ((0, 1), 0) in parts
