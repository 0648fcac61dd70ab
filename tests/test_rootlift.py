"""Certified root iteration, recentring and compatible towers."""

from fractions import Fraction
from math import ceil

import pytest

from nonarch import (FieldSpec, LogNorm, MaxStepsExceeded, PreconditionFailed,
                     RadiusDecl, RootTower, Scalar, TateSeries,
                     TowerObstruction, build_tower, ln_pow, pth_root_near,
                     pth_root_near_one, scalar_from_literal, scalar_pth_root,
                     tower_unit_certificate, verify_tower, verify_trace)
from nonarch.fields import FQ_LAURENT, PADIC, check_aux_prime
from nonarch.lognorm import Cmp, ln_compare, ln_le
from nonarch.rootlift import (DEFAULT_MAX_STEPS, DEFAULT_TOL_EXPONENT,
                              MIN_WORK_DEPTH, REDUCE_THRESHOLD_BITS, RootStep,
                              RootTrace)
from nonarch.series import POWER

Q3 = FieldSpec(PADIC, 3, precision_cap=40)
Q5 = FieldSpec(PADIC, 5, precision_cap=40)
F2T = FieldSpec(FQ_LAURENT, 2, field_size=2, precision_cap=64)
F4T = FieldSpec(FQ_LAURENT, 2, field_size=4, precision_cap=64)
R1 = RadiusDecl.default("r1")


def q3(x):
    return Scalar.from_fraction(Q3, Fraction(x))


def test_worked_trace_for_four():
    root, trace = pth_root_near_one(q3(4), 2)
    assert trace.certified
    s1, s2 = trace.steps[0], trace.steps[1]
    assert s1.g.equals(q3(Fraction(3, 2)))
    assert s1.h.equals(q3(Fraction(9, 4)))
    assert s1.norm_g.base_exp == 1 and s1.norm_h.base_exp == 2
    assert s2.g.equals(q3(Fraction(-9, 8)))
    assert s2.h.equals(q3(Fraction(-135, 64)))
    assert s2.norm_h.base_exp == 3
    # partial sum after two steps
    assert (Scalar.one(Q3) + s1.g + s2.g).equals(q3(Fraction(11, 8)))
    assert root.cap().equals(q3(-2))
    assert verify_trace(trace)


def test_trivial_target():
    root, trace = pth_root_near_one(Scalar.one(Q3), 2)
    assert root.equals(Scalar.one(Q3))
    assert trace.certified and not trace.steps
    assert verify_trace(trace)


def test_oracle_agreement():
    for target in (4, 25, 13, 16):
        root, trace = pth_root_near_one(q3(target), 2)
        assert trace.certified
        assert root.cap().equals(scalar_pth_root(q3(target), 2))


def test_contraction_is_g1_norm():
    _, trace = pth_root_near_one(q3(4), 2)
    g1 = trace.contraction
    for step in trace.steps:
        assert step.cond_contraction and step.cond_defect
        assert step.norm_g.base_exp >= step.index * g1.base_exp
        assert step.norm_h.base_exp >= (step.index + 1) * g1.base_exp


def test_preconditions():
    with pytest.raises(PreconditionFailed):
        pth_root_near_one(q3(2), 2)        # |f - 1| = 1, no contraction
    with pytest.raises(PreconditionFailed):
        pth_root_near_one(q3(4), 3)        # |3| < 1 in Q_3
    with pytest.raises(MaxStepsExceeded) as exc:
        pth_root_near_one(q3(4), 2, max_steps=3)
    assert len(exc.value.trace.steps) == 3


def test_near_shifted_case():
    res = pth_root_near(q3(13), q3(4), q3(-2), 2)
    assert res.recentred and res.trace.certified
    assert res.root.pow_int(2).cap().equals(q3(13))
    assert res.root.cap().equals(scalar_pth_root(q3(13), 2))


def test_near_trivial_cases():
    res = pth_root_near(q3(4), q3(4), q3(-2), 2)
    assert res.root.equals(q3(-2)) and res.recentred
    res2 = pth_root_near(q3(radix := 13), Scalar.one(Q3), Scalar.one(Q3), 2)
    assert res2.root.pow_int(2).cap().equals(q3(radix))


def test_near_preconditions():
    with pytest.raises(PreconditionFailed):
        pth_root_near(q3(13), q3(4), q3(1), 2)     # 1 is not a root of 4
    with pytest.raises(PreconditionFailed):
        pth_root_near(q3(1), q3(9), q3(3), 2)      # |f - g| = |f|


def test_tower_for_four():
    tower = build_tower(q3(4), 2, 2)
    assert verify_tower(tower)
    assert tower.depth == 2
    assert tower.elements[1].equals(q3(-2))
    x = tower.elements[2]
    assert x.pow_int(2).equals(q3(-2))
    assert (x - q3(4)).valuation() >= 2    # x = 4 mod 9
    ok, inv = tower_unit_certificate(tower)
    assert ok and (tower.elements[0] * inv).equals(Scalar.one(Q3))


def test_tower_trivial_and_obstructed():
    triv = build_tower(Scalar.one(Q3), 2, 3)
    assert verify_tower(triv)
    assert all(e.equals(Scalar.one(Q3)) for e in triv.elements)
    with pytest.raises(TowerObstruction) as exc:
        build_tower(q3(3), 2, 1)
    assert exc.value.depth == 1


def test_corrupted_tower_fails():
    bad = RootTower(2, [q3(4), q3(Fraction(21, 10))])
    assert not verify_tower(bad)
    assert verify_tower(RootTower(2, [Scalar.one(Q3)] * 3))


def test_laurent_scalar_tower():
    f = Scalar.one(F2T) + Scalar.t_power(F2T)    # 1 + t, unit = 1 mod t
    tower = build_tower(f, 3, 2)
    assert verify_tower(tower)
    assert tower_unit_certificate(tower)[0]


def test_other_padic_field():
    q5 = FieldSpec(PADIC, 5, precision_cap=40)
    six = Scalar.from_int(q5, 6)           # 6 = 1 mod 5
    root, trace = pth_root_near_one(six, 2)
    assert trace.certified
    assert trace.contraction.base_exp == 1
    assert root.cap().equals(scalar_pth_root(six, 2))
    cubert, trace3 = pth_root_near_one(six, 3)
    assert trace3.certified
    assert cubert.pow_int(3).cap().equals(six)


def test_root_of_capped_input():
    # root of a capped value inherits the input's precision
    capped = scalar_pth_root(Scalar.from_int(Q3, 4), 2)   # prec 40
    again = scalar_pth_root(capped.pow_int(2), 2)
    assert again.precision == 40
    assert again.pow_int(2).equals(Scalar.from_int(Q3, 4))


def test_series_carrier_iteration():
    f = TateSeries.from_terms(F2T, (R1,), [((0,), "1"), ((1,), "t")],
                              kind=POWER)
    tol = ln_pow(LogNorm.of(1, (1,)), 5)
    root, trace = pth_root_near_one(f, 3, max_steps=6, tol=tol)
    assert trace.certified
    assert verify_trace(trace)
    sep = root - root.ring_one()
    # recentring guarantee: |root - 1| <= |g_1| < 1 = |root|
    assert sep.norm_ln() == trace.contraction
    old_root, old = _old_pth_root_near_one(f, 3, max_steps=6, tol=tol)
    assert len(trace.steps) == len(old.steps) and old.certified
    assert _capped(root) == _capped(old_root)


# -- bounded traces against the g-only taming they replace -----------------

def _old_tame(x, work_depth):
    if x.rep_size() <= 4096:
        return x
    return x.reduce_representative(work_depth)


def _old_pth_root_near_one(f, p, max_steps=DEFAULT_MAX_STEPS, tol=None):
    """The iteration that tamed each correction only, past 4,096 bits: the
    running root kept every denominator it picked up."""
    spec = f.spec
    if not check_aux_prime(spec, p):
        raise PreconditionFailed(
            f"prime {p} does not have norm 1 in {spec.describe()}")
    radii = f.radius_ctx()
    one = f.ring_one()
    diff = f - one
    if diff.is_ring_zero():
        trace = RootTrace(p, f, LogNorm.zero(len(radii)), [], one, True,
                          "target is 1; root is 1")
        return one, trace
    g1 = diff.div_int(p)
    g1n = g1.norm_ln()
    diffn = diff.norm_ln()
    if g1n != diffn:
        raise PreconditionFailed("|p| = 1 failed to hold on this input")
    ident = LogNorm.identity(len(radii))
    if ln_compare(g1n, ident, radii) is not Cmp.LT:
        raise PreconditionFailed(
            f"|f - 1| = {g1n} is not < 1; the iteration does not contract")
    if tol is None:
        tol = ln_pow(g1n, DEFAULT_TOL_EXPONENT)
    work_depth = max(MIN_WORK_DEPTH, 3 * ceil(tol.base_exp) + 16)
    g1 = _old_tame(g1, work_depth)
    trace = RootTrace(p, f, g1n)
    partial = one + g1
    g = g1
    for m in range(1, max_steps + 1):
        h = partial.pow_int(p) - f
        gn = g.norm_ln()
        hn = h.norm_ln() if not h.is_ring_zero() else LogNorm.zero(len(radii))
        ok_g = ln_le(gn, ln_pow(g1n, m), radii)
        ok_h = hn.is_zero or ln_le(hn, ln_pow(g1n, m + 1), radii)
        trace.steps.append(RootStep(m, g, h, gn, hn, ok_g, ok_h))
        if not (ok_g and ok_h):
            trace.certified = False
            trace.reason = f"contraction conditions failed at step {m}"
            trace.result = partial
            return partial, trace
        if hn.is_zero or ln_le(hn, tol, radii):
            trace.result = partial
            trace.certified = True
            trace.reason = f"|h_{m}| within tolerance after {m} steps"
            return partial, trace
        g = _old_tame((-h).div_int(p), work_depth)
        partial = partial + g
    trace.result = partial
    trace.reason = f"tolerance not reached in {max_steps} steps"
    raise MaxStepsExceeded(trace.reason, trace)


def _capped(x):
    if isinstance(x, Scalar):
        return x.cap().to_literal()
    return sorted((e, c.cap().to_literal()) for e, c in x.support.items())


def _partials(trace):
    partial = trace.target.ring_one()
    for s in trace.steps:
        partial = partial + s.g
        yield s, partial


# every target has |f - 1| = 1/q
BOUNDED_CASES = [(Q3, 2, t) for t in ("4", "7", "13/4", "-2", "1+2*3")] + \
    [(Q5, p, t) for p in (2, 3) for t in ("6", "11", "-4", "31/6")] + \
    [(F2T, 3, "1 + t"), (F2T, 3, "1 + t + t^3"), (F2T, 3, "1 + t + t^2"),
     (F4T, 3, "1 + t + t^2"), (F4T, 3, "1 + w*t")]


@pytest.mark.parametrize("spec,p,target", BOUNDED_CASES)
def test_bounded_trace_matches_g_only_taming(spec, p, target):
    f = scalar_from_literal(spec, target)
    root, trace = pth_root_near_one(f, p)
    old_root, old = _old_pth_root_near_one(f, p)
    assert len(trace.steps) == len(old.steps)
    assert trace.certified and old.certified
    assert root.cap().equals(old_root.cap())
    assert verify_trace(trace)
    bound = (p + 1) * 1024 + f.rep_size()
    for s, partial in _partials(trace):
        assert max(s.g.rep_size(), s.h.rep_size(), partial.rep_size()) \
            <= bound
    # while the old running root stays below the threshold, the two traces
    # store the same textbook values
    for (s, _), (t, partial) in zip(_partials(trace), _partials(old)):
        if partial.rep_size() > REDUCE_THRESHOLD_BITS:
            break
        assert s.g.equals(t.g) and s.h.equals(t.h)


def test_bounded_trace_perturbed_below_work_depth_fails():
    # a change below q^-work_depth is invisible to every certified norm,
    # but identity (1) is checked exactly
    _, trace = pth_root_near_one(q3(4), 2)
    step = trace.steps[5]
    step.g = step.g + Scalar.from_int(Q3, 3 ** MIN_WORK_DEPTH)
    assert not verify_trace(trace)
