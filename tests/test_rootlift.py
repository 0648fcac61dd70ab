"""Certified root iteration, recentring and compatible towers."""

import importlib.util
import pathlib
import sys
from fractions import Fraction
from math import ceil

import pytest

from nonarch import (FieldSpec, LogNorm, MaxStepsExceeded, PreconditionFailed,
                     RootTower, Scalar, TowerObstruction, build_tower, ln_pow,
                     pth_root_near, pth_root_near_one, scalar_from_literal, scalar_pth_root,
                     tower_unit_certificate, verify_tower, verify_trace)
from nonarch.cli import _params_for, build_parser, load_config
from nonarch.fields import FQ_LAURENT, PADIC, check_aux_prime
from nonarch.lognorm import Cmp, ln_compare, ln_le
from nonarch.rootlift import (DEFAULT_MAX_STEPS, MIN_WORK_DEPTH, RootStep,
                              RootTrace)
from test_golden import CASES

Q3 = FieldSpec(PADIC, 3, precision_cap=40)
Q5 = FieldSpec(PADIC, 5, precision_cap=40)
F2T = FieldSpec(FQ_LAURENT, 2, field_size=2, precision_cap=64)
F4T = FieldSpec(FQ_LAURENT, 2, field_size=4, precision_cap=64)


def q3(x):
    return Scalar.from_fraction(Q3, Fraction(x))


def test_worked_trace_for_four():
    root, trace = pth_root_near_one(q3(4), 2)
    assert trace.certified and len(trace.steps) == 6
    s1, s2 = trace.steps[0], trace.steps[1]
    assert s1.g.equals(q3(Fraction(3, 2)))
    assert s1.h.equals(q3(Fraction(9, 4)))
    assert s1.norm_g.base_exp == 1 and s1.norm_h.base_exp == 2
    # y_1 = 1*(2 - x_1) = -1/2, so g_2 = -h_1*y_1/2
    assert s2.g.equals(q3(Fraction(9, 16)))
    assert s2.h.equals(q3(Fraction(1377, 256)))     # 3^4 * 17 / 2^8
    assert s2.norm_g.base_exp == 2 and s2.norm_h.base_exp == 4
    # partial sum after two steps
    assert (Scalar.one(Q3) + s1.g + s2.g).equals(q3(Fraction(49, 16)))
    # |h_m| = 3^-2, 3^-4, 3^-8, ..., 3^-64: the digits double every step
    assert [s.norm_h.base_exp for s in trace.steps] == \
        [2, 4, 8, 16, 32, 64]
    assert root.cap().equals(q3(-2))
    assert verify_trace(trace)


def test_trace_without_root_fails():
    _, trace = pth_root_near_one(q3(4), 2)
    trace.result = None
    assert trace.certified and len(trace.steps) == 6
    assert not verify_trace(trace)


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
        assert step.norm_h.base_exp >= 2 ** step.index * g1.base_exp


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


def test_default_traces_never_share_their_steps():
    one = LogNorm.zero(0)
    a, b = RootTrace(2, q3(4), one), RootTrace(prime=2, target=q3(4),
                                               contraction=one)
    a.steps.append("step")
    assert a.steps == ["step"] and b.steps == []
    assert (b.result, b.certified, b.reason) == (None, False, "")


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


# -- Newton traces against the linear iteration they replace ---------------

# the old floor: from the old default tolerance |g_1|^40
_OLD_WORK_DEPTH = 3 * 40 + 16


def _old_tame(x, work_depth):
    if x.rep_size() <= 4096:
        return x
    return x.reduce_representative(work_depth)


def _old_pth_root_near_one(f, p, tol, max_steps=DEFAULT_MAX_STEPS):
    """The linear iteration g_{m+1} = -h_m/p, which tamed each correction
    only, past 4,096 bits: the running root kept every denominator it
    picked up."""
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
    work_depth = max(_OLD_WORK_DEPTH, 3 * ceil(tol.base_exp) + 16)
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


def _partials(trace):
    partial = trace.target.ring_one()
    for s in trace.steps:
        partial = partial + s.g
        yield s, partial


def _assert_quadratic(trace):
    """|h_m| <= |g_1|^(2^m) at every step."""
    for s in trace.steps:
        assert ln_le(s.norm_h, ln_pow(trace.contraction, 2 ** s.index), ())


# every target has |f - 1| = 1/q
BOUNDED_CASES = [(Q3, 2, t) for t in ("4", "7", "13/4", "-2", "1+2*3")] + \
    [(Q5, p, t) for p in (2, 3) for t in ("6", "11", "-4", "31/6")] + \
    [(F2T, 3, "1 + t"), (F2T, 3, "1 + t + t^3"), (F2T, 3, "1 + t + t^2"),
     (F4T, 3, "1 + t + t^2"), (F4T, 3, "1 + w*t")]


@pytest.mark.parametrize("spec,p,target", BOUNDED_CASES)
def test_bounded_trace_matches_g_only_taming(spec, p, target):
    f = scalar_from_literal(spec, target)
    root, trace = pth_root_near_one(f, p)
    # the linear iteration, stopped at the same tolerance, is the oracle
    old_root, old = _old_pth_root_near_one(f, p,
                                           LogNorm.of(spec.precision_cap))
    assert len(trace.steps) <= min(len(old.steps), 6)
    assert trace.certified and old.certified
    assert root.cap().equals(old_root.cap())
    assert verify_trace(trace)
    _assert_quadratic(trace)
    bound = (p + 1) * 1024 + f.rep_size()
    for s, partial in _partials(trace):
        assert max(s.g.rep_size(), s.h.rep_size(), partial.rep_size()) \
            <= bound
    # the first step is the textbook one in both traces
    assert trace.steps[0].g.equals(old.steps[0].g)
    assert trace.steps[0].h.equals(old.steps[0].h)


def test_bounded_trace_perturbed_below_work_depth_fails():
    # a change below q^-work_depth (2*cap + 16 for a q3 root with
    # |f - 1| = 1/3) is invisible to every certified norm, but identity (1)
    # is checked exactly
    _, trace = pth_root_near_one(q3(4), 2)
    step = trace.steps[5]
    depth = 2 * Q3.precision_cap + MIN_WORK_DEPTH
    step.g = step.g + Scalar.from_int(Q3, 3 ** depth)
    assert not verify_trace(trace)


# -- every printed digit is certified: the field's own root is the oracle --

def _load_lift_jobs():
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / \
        "jobs.py"
    spec = importlib.util.spec_from_file_location("_bench_jobs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


GOLDEN_ROOTS = [tuple(argv) for _, argv in sorted(CASES.items())
                if argv[0] == "pth-root"]
LIFT_ROOTS = sorted({job.argv for seed in (11, 12, 13, 14)
                     for job in _load_lift_jobs().build("lift", seed)
                     if job.argv[0] == "pth-root"} - set(GOLDEN_ROOTS))
ROOT_CASES = pytest.mark.parametrize(
    "argv", GOLDEN_ROOTS + LIFT_ROOTS, ids=lambda argv: " ".join(argv[1:]))


def _root_trace(argv):
    """(target, prime, root, trace) of a pth-root command line, with the
    field, target and steps the CLI parses from it."""
    params = _params_for(build_parser().parse_args(list(argv)),
                         load_config())
    f = scalar_from_literal(FieldSpec.from_json(params["field"]),
                            params["target"])
    p = params["prime"]
    kwargs = {} if params.get("max_steps") is None \
        else {"max_steps": params["max_steps"]}
    return (f, p) + pth_root_near_one(f, p, **kwargs)


@ROOT_CASES
def test_capped_root_is_the_field_root(argv):
    f, p, root, trace = _root_trace(argv)
    assert trace.certified and verify_trace(trace)
    assert root.cap().to_literal() == scalar_pth_root(f, p).to_literal()


@ROOT_CASES
def test_root_trace_is_quadratic(argv):
    _, _, _, trace = _root_trace(argv)
    assert len(trace.steps) <= 8
    _assert_quadratic(trace)


def test_capped_target_stops_at_its_known_digits():
    # w/(w + t) is known to t^64 only: Newton passes that precision, so the
    # last step stores h = 0 and replay accepts it through equals
    f = scalar_from_literal(F4T, "w/(w + t)")
    assert f.precision == F4T.precision_cap
    root, trace = pth_root_near_one(f, 3)
    last = trace.steps[-1]
    assert trace.certified and last.h.is_ring_zero() and last.norm_h.is_zero
    assert "every known digit" in trace.reason
    assert verify_trace(trace)
    assert root.cap().equals(scalar_pth_root(f, 3))


@pytest.mark.parametrize("target,steps", [("1+3^200", 1), ("1+3^700", 1),
                                          ("1+2*3^64", 1), ("1+3^5", 3)])
def test_deep_target_stops_at_the_cap(target, steps):
    # the tolerance is q^-cap, not |g_1|^40; the running root is held past
    # |g_1|^2 even when |g_1| is below the cap
    f = scalar_from_literal(Q3, target)
    root, trace = pth_root_near_one(f, 2)
    assert trace.certified and len(trace.steps) == steps
    assert verify_trace(trace)
    _assert_quadratic(trace)
    assert root.cap().equals(scalar_pth_root(f, 2))
