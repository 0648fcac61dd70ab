"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one line

    ACCEPTANCE <n> <name>: PASS (<elapsed>s < <budget>s)

and fails if the criterion or its time budget is violated.  Run with
``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import random
import time
from fractions import Fraction

from nonarch import (Cmp, FieldSpec, LogNorm, RadiusDecl, RootTower,
                     Scalar, SquareZeroRing, TateSeries, build_tower,
                     derivative_span_witness, ln_compare, ln_mul,
                     nonintegral_certificate, p_independence_certificate,
                     pbasis_series, pth_root_near, pth_root_near_one,
                     scalar_pth_root, series_decompose, series_reconstruct,
                     sparse_series, spectral_power_estimates,
                     spectral_radius_laurent, tower_unit_certificate,
                     unboundedness_table, verify_norm_bound, verify_tower,
                     verify_trace)
from nonarch.fields import FQ_LAURENT, PADIC, RATFUN_LAURENT
from nonarch.series import LAURENT, POWER

Q3 = FieldSpec(PADIC, 3, precision_cap=40)
F2T = FieldSpec(FQ_LAURENT, 2, field_size=2, precision_cap=64)
F4T = FieldSpec(FQ_LAURENT, 2, field_size=4, precision_cap=64)
RF2 = FieldSpec(RATFUN_LAURENT, 2, nvars=3, precision_cap=64)
R1 = RadiusDecl.default("r1")


def _report(number, name, start, budget):
    elapsed = time.perf_counter() - start
    line = f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s < {budget}s)"
    print(line, flush=True)
    assert elapsed < budget, f"budget exceeded: {elapsed:.2f}s >= {budget}s"


def q3(x):
    return Scalar.from_fraction(Q3, Fraction(x))


def _check_trace_conditions(trace, f):
    """Independent replay of the four per-step identities, zero tolerance."""
    one = f.ring_one()
    diff = f - one
    if diff.is_ring_zero():
        return
    g1n = diff.norm_ln()
    assert trace.contraction == g1n                      # condition (2)
    partial = one
    for step in trace.steps:
        partial = partial + step.g
        assert partial.pow_int(trace.prime).equals(f + step.h)   # (1), exact
        gn = step.g.norm_ln()
        assert gn == step.norm_g
        # (3): |g_m| <= |g_1|^m as exact valuation arithmetic
        assert gn.base_exp >= step.index * g1n.base_exp
        if not step.h.is_ring_zero():
            hn = step.h.norm_ln()
            assert hn == step.norm_h
            assert hn.base_exp >= (step.index + 1) * g1n.base_exp    # (4)


def test_criterion_1_root_iteration():
    budget_per_case = 1.0
    cases_elapsed = []
    # f = 4 and f = 25: direct targets
    for target in (4, 25):
        t0 = time.perf_counter()
        f = q3(target)
        root, trace = pth_root_near_one(f, 2)
        assert trace.certified and verify_trace(trace)
        _check_trace_conditions(trace, f)
        oracle = scalar_pth_root(f, 2)
        assert oracle.precision == 40
        assert root.cap().equals(oracle)
        cases_elapsed.append(time.perf_counter() - t0)
    # the 13/4-shifted case: recentre at g = 4 with known root -2
    t0 = time.perf_counter()
    res = pth_root_near(q3(13), q3(4), q3(-2), 2)
    assert res.trace.certified and res.recentred
    _check_trace_conditions(res.trace, q3(Fraction(13, 4)))
    assert res.root.pow_int(2).cap().equals(q3(13))
    assert res.root.cap().equals(scalar_pth_root(q3(13), 2))
    cases_elapsed.append(time.perf_counter() - t0)
    assert all(dt < budget_per_case for dt in cases_elapsed)
    print(f"ACCEPTANCE 1 root-iteration-certification: PASS "
          f"(max case {max(cases_elapsed):.2f}s < {budget_per_case}s)",
          flush=True)


def _random_exact_series(rng, spec, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        if spec.kind == PADIC:
            c = Scalar.from_fraction(
                spec, Fraction(rng.randint(1, 80),
                               rng.choice([1, 1, 2, 3, 9, 27])))
        else:
            poly = {}
            for _ in range(rng.randint(1, 3)):
                poly[rng.randint(-3, 5)] = 1
            c = Scalar.zero(spec)
            for e in poly:
                c = c + Scalar.t_power(spec, e)
            if c.is_ring_zero():
                c = Scalar.one(spec)
        terms[(rng.randint(-4, 6),)] = c
    return TateSeries(spec, LAURENT, (R1,), terms)


def test_criterion_2_gauss_multiplicativity():
    t0 = time.perf_counter()
    rng = random.Random(101)
    for spec in (Q3, F2T):
        done = 0
        while done < 1000:
            f = _random_exact_series(rng, spec)
            g = _random_exact_series(rng, spec)
            if f.is_ring_zero() or g.is_ring_zero():
                continue
            nf, ef = f.gauss_norm()
            ng, eg = g.gauss_norm()
            nfg, efg = (f * g).gauss_norm()
            assert ef and eg and efg
            assert nfg == ln_mul(nf, ng)     # exact LogNorm equality
            done += 1
    _report(2, "gauss-norm-multiplicativity", t0, 30.0)


def test_criterion_3_spectral_radius_formula():
    t0 = time.perf_counter()
    rng = random.Random(202)
    done = 0
    while done < 200:
        f = _random_exact_series(rng, Q3, max_terms=6)
        if f.is_ring_zero():
            continue
        radius, exact = spectral_radius_laurent(f)
        assert exact
        assert spectral_power_estimates(f, 6) == [radius] * 6
        done += 1
    # monomial case, symbolically: |a T^i| = |a| r^i
    for a, i in ((3, 2), (Fraction(1, 9), -3), (5, 0)):
        mono = TateSeries.monomial(Q3, (R1,), (i,), q3(a), LAURENT)
        radius, _ = spectral_radius_laurent(mono)
        assert radius == ln_mul(q3(a).norm_ln(1), LogNorm.of(0, (i,)))
    _report(3, "spectral-radius-formula", t0, 60.0)


def test_criterion_4_unboundedness():
    t0 = time.perf_counter()
    cert6 = unboundedness_table(6, Q3, R1, Fraction(10) ** 6)
    assert cert6.verdict == "UNBOUNDED"
    rows = cert6.witness["rows"]
    indices = [4, 11, 37, 153, 771]
    assert [r["tail_index"] for r in rows] == indices
    for row, idx in zip(rows, indices):
        assert row["ratio"] == {"e0": "0", "radius": [str(-idx)]}
    assert cert6.witness["strictly_increasing"]
    assert rows[2]["exceeds_bound"]          # > 1e6 by n = 3
    # > 1e30 by n = 5, by the same certified interval evaluation
    from nonarch.lognorm import norm_exceeds
    ratio5 = LogNorm.from_json(rows[4]["ratio"])
    assert norm_exceeds(ratio5, (R1,), 3, Fraction(10) ** 30)
    _report(4, "unboundedness-demonstration", t0, 5.0)


def test_criterion_5_nonintegrality_oracle():
    t0 = time.perf_counter()
    sp = sparse_series(3, Q3, R1)
    assert sorted(e[0] for e in sp.series.support) == [2, 4, 11]
    cert = nonintegral_certificate(sp, 2, 3)
    assert cert.verdict == "NON_INTEGRAL"
    assert cert.witness["rank"] == cert.witness["unknowns"] == 12
    # planted-relation controls
    fT = TateSeries.monomial(Q3, (R1,), 1, Scalar.one(Q3))
    assert nonintegral_certificate(fT, 1, 1).verdict == "RELATION_FOUND"
    fT2 = TateSeries.monomial(Q3, (R1,), 2, Scalar.one(Q3))
    assert nonintegral_certificate(fT2, 1, 2).verdict == "RELATION_FOUND"
    _report(5, "non-integrality-oracle", t0, 10.0)


def test_criterion_6_p_independence_oracle():
    t0 = time.perf_counter()
    f = pbasis_series(RF2, 4, R1)
    cert = p_independence_certificate(f, 4, 2)
    assert cert.verdict == "P_INDEPENDENT"
    assert len(cert.witness["obstructions"]) == 4
    u1sq = TateSeries.monomial(RF2, (R1,), 2,
                               Scalar.uvar(RF2, 0).pow_int(2))
    assert p_independence_certificate(u1sq, 4, 2).verdict \
        == "RELATION_FOUND"
    fT = TateSeries.monomial(RF2, (R1,), 1, Scalar.one(RF2))
    assert p_independence_certificate(fT, 4, 2).verdict == "RELATION_FOUND"
    _report(6, "p-independence-oracle", t0, 60.0)


def _random_fq_scalar(rng, spec):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        terms[rng.randint(-5, 8)] = rng.randint(1, spec.field_size - 1)
    dom = spec.domain()
    out = Scalar.zero(spec)
    for e, code in sorted(terms.items()):
        gf = spec.domain()
        coeff = gf.from_int(code) if gf.d == 1 else _decode(gf, code)
        out = out + Scalar(spec, val=e, unit={0: coeff})
    return out if not out.is_ring_zero() else Scalar.one(spec)


def _decode(gf, code):
    digits = []
    while code:
        digits.append(code % gf.p)
        code //= gf.p
    return tuple(digits)


def test_criterion_7_ffinite_decomposition():
    t0 = time.perf_counter()
    rng = random.Random(303)
    for spec in (F2T, F4T):
        for _ in range(250):
            sup = {}
            for _ in range(rng.randint(1, 5)):
                sup[(rng.randint(0, 9),)] = _random_fq_scalar(rng, spec)
            f = TateSeries(spec, POWER, (R1,), sup)
            parts = series_decompose(f)
            assert series_reconstruct(parts, f).equals(f)
            assert derivative_span_witness(f, parts)
            for _, c in f.support.items():
                ratio, ok = verify_norm_bound(c)
                assert ok and ratio == LogNorm.identity(0)
    _report(7, "f-finite-decomposition", t0, 30.0)


def test_criterion_8_square_zero_ring():
    t0 = time.perf_counter()
    rng = random.Random(404)

    def rand_scalar(spec):
        if spec.kind == PADIC:
            return Scalar.from_fraction(
                spec, Fraction(rng.randint(1, 50),
                               rng.choice([1, 2, 3, 9, 27])))
        return _random_fq_scalar(rng, spec)

    def rand_series(spec):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[(rng.randint(-2, 3),)] = rand_scalar(spec)
        return TateSeries(spec, LAURENT, (R1,), terms)

    trials = 0
    for spec in (Q3, F2T):
        scalar_ring = SquareZeroRing(Scalar.one(spec))
        series_ring = SquareZeroRing(
            TateSeries.one(spec, (R1,), kind=LAURENT))
        for k in range(500):
            ring = series_ring if k % 2 else scalar_ring
            rand = (lambda: rand_series(spec)) if k % 2 \
                else (lambda: rand_scalar(spec))
            x = ring.elem(rand(), rand())
            y = ring.elem(rand(), rand())
            z = ring.elem(rand(), rand())
            assert ((x * y) * z).equals(x * (y * z))
            assert (x * (y + z)).equals(x * y + x * z)
            nil = ring.elem(ring.base_zero, x.b)
            assert (nil * nil).equals(ring.zero())
            nxy = (x * y).norm_ln()
            if not nxy.is_zero:
                assert ln_compare(nxy, ln_mul(x.norm_ln(), y.norm_ln()),
                                  (R1,)) is not Cmp.GT
            assert ring.embed(x.a).norm_ln() \
                == x.a.norm_ln().pad(len(ring.radii))
            trials += 1
    assert trials == 1000
    _report(8, "square-zero-ring", t0, 30.0)


def test_criterion_9_tower_property():
    t0 = time.perf_counter()
    towers = [build_tower(q3(4), 2, 2),
              build_tower(Scalar.one(Q3), 2, 3),
              build_tower(q3(25), 2, 1),
              build_tower(Scalar.one(F2T) + Scalar.t_power(F2T), 3, 2)]
    for tower in towers:
        assert verify_tower(tower)
        ok, inv = tower_unit_certificate(tower)
        assert ok
        base = tower.elements[0]
        assert not base.norm_ln().is_zero
        assert (base * inv).equals(base.ring_one())
    corrupted = RootTower(2, [q3(4), q3(Fraction(21, 10))])
    assert not verify_tower(corrupted)
    _report(9, "tower-property", t0, 5.0)
