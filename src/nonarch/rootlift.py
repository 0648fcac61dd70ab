"""p-th root extraction by Newton iteration, with per-step certificates.

The iteration runs on field scalars (``Scalar``): starting from a unit f
with |f - 1| < 1 and an auxiliary prime p of norm 1, set x_1 = 1 + g_1 and

    g_1 = (f - 1)/p,   g_{m+1} = -h_m*y_m/p,   h_m = x_m^p - f,

where x_m = 1 + g_1 + ... + g_m and y_m is an approximate inverse of
x_m^(p-1), updated without division as y_m = y_(m-1)*(2 - x_m^(p-1)*y_(m-1))
from y_0 = 1.  Then |h_(m+1)| <= max(|h_m|^2, |h_m|*|1 - x_m^(p-1)*y_m|),
the inverse's error squares at every update as well, and so
|h_m| <= |g_1|^(2^m).  Every step records (g_m, h_m) with their norms; the
certified conditions are

    (1) (1 + g_1 + ... + g_m)^p = f + h_m     (exact identity),
    (2) |g_1| = |f - 1|,
    (3) |g_m| <= |g_1|^m,
    (4) |h_m| <= |g_1|^(m+1),

which the quadratic steps meet with room to spare.  The iteration stops at
|h_m| <= q^(-cap) (resp. t^(-cap)), so every digit of the root at the
field's precision cap is certified.
Each running root and its inverse are exact representatives held to a
bounded size, and g_m is the exact difference of two running roots, so a
trace carries no fraction larger than its certificate needs.
Compatible towers stack roots: tower[e+1]^p = tower[e].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

from .errors import (MaxStepsExceeded, NoRootInField, PrecisionExhausted,
                     PreconditionFailed, TowerObstruction)
from .fields import check_aux_prime, scalar_pth_root
from .lognorm import Cmp, LogNorm, ln_compare, ln_le, ln_pow

DEFAULT_MAX_STEPS = 64
# absolute digit depth kept in the running root and its inverse between
# steps: 2*e + MIN_WORK_DEPTH, e the deeper of the tolerance q^(-cap)
# and |g_1|.  A step m that does not stop has q^(-e) < |h_m| <=
# |g_1|^(2^m), so the next defect bound |g_1|^(2^(m+1)) is above q^(-2e),
# and a cut below it disturbs no certified valuation (the exact iteration
# otherwise doubles its representation size at every step)
MIN_WORK_DEPTH = 16
# a running root below this bit size is never rewritten, so small traces
# show the textbook rationals verbatim; above it the root is cut back to
# the work depth (for |f - 1| = 1/q no stored g, h or root then outgrows
# p + 1 times this plus the target's own size)
REDUCE_THRESHOLD_BITS = 1024


def _tame(x, work_depth):
    if x.rep_size() <= REDUCE_THRESHOLD_BITS:
        return x
    return x.reduce_representative(work_depth)


@dataclass
class RootStep:
    index: int
    g: object
    h: object
    norm_g: LogNorm
    norm_h: LogNorm
    cond_contraction: bool   # |g_m| <= |g_1|^m
    cond_defect: bool        # |h_m| <= |g_1|^(m+1)


@dataclass
class RootTrace:
    prime: int
    target: object
    contraction: LogNorm          # |g_1| = |f - 1|
    steps: list = field(default_factory=list)
    result: object = None
    certified: bool = False
    reason: str = ""

    def to_json(self):
        return {
            "claim": "pth-root-iteration",
            "prime": self.prime,
            "target": _obj_json(self.target),
            "contraction": self.contraction.to_json(),
            "steps": [{
                "m": s.index,
                "g": _obj_json(s.g),
                "h": _obj_json(s.h),
                "norm_g": s.norm_g.to_json(),
                "norm_h": s.norm_h.to_json(),
                "contraction_ok": s.cond_contraction,
                "defect_ok": s.cond_defect,
            } for s in self.steps],
            "root": _obj_json(self.result),
            "certified": self.certified,
            "reason": self.reason,
        }


def _obj_json(x):
    return None if x is None else x.to_literal()


def pth_root_near_one(f, p: int, max_steps: int = DEFAULT_MAX_STEPS):
    """Root of the scalar f with |f - 1| < 1; returns (root, RootTrace).

    Runs on exact representations; the caller caps the output if a capped
    scalar is wanted.  Stops once |h_m| <= q^(-cap) (t^(-cap)), the field's
    precision cap, or once x_m^p agrees with a capped f at every digit f
    knows.

    Each running root x_m - h_m*y_m/p and each inverse y_m past
    ``REDUCE_THRESHOLD_BITS`` is replaced by an exact representative
    agreeing with it to an absolute digit depth set by the tolerance (see
    ``MIN_WORK_DEPTH``), and g_{m+1} is stored as the exact difference of
    two running roots.  The recorded conditions (1)-(4) are exact
    identities of the stored values, and the perturbation (below that
    digit) is invisible at every certified valuation.
    """
    spec = f.spec
    if not check_aux_prime(spec, p):
        raise PreconditionFailed(
            f"prime {p} does not have norm 1 in {spec.describe()}")
    one = f.ring_one()
    diff = f - one
    if diff.is_ring_zero():
        trace = RootTrace(p, f, LogNorm.zero(0), [], one, True,
                          "target is 1; root is 1")
        return one, trace
    g1 = diff.div_int(p)
    g1n = g1.norm_ln()
    diffn = diff.norm_ln()
    if g1n != diffn:
        raise PreconditionFailed("|p| = 1 failed to hold on this input")
    if ln_compare(g1n, LogNorm.identity(0), ()) is not Cmp.LT:
        raise PreconditionFailed(
            f"|f - 1| = {g1n} is not < 1; the iteration does not contract")
    tol = LogNorm._make(spec.precision_cap, ())
    work_depth = 2 * max(0, ceil(tol.base_exp), ceil(g1n.base_exp)) \
        + MIN_WORK_DEPTH
    trace = RootTrace(p, f, g1n)
    x = _tame(one + g1, work_depth)
    g = x - one
    y = one
    two = one + one
    for m in range(1, max_steps + 1):
        xp1 = x.pow_int(p - 1)
        xp = xp1 * x
        try:
            h = xp - f
        except PrecisionExhausted:
            # x^p agrees with a capped f at every digit f knows: h is 0 at
            # that precision, as verify_trace's equals finds too
            h = one - one
            reason = f"root^{p} agrees with the target at every known " \
                f"digit after {m} steps"
        else:
            reason = f"|h_{m}| within tolerance after {m} steps"
        gn = g.norm_ln()
        hn = h.norm_ln() if not h.is_ring_zero() else LogNorm.zero(0)
        ok_g = ln_le(gn, ln_pow(g1n, m), ())
        ok_h = hn.is_zero or ln_le(hn, ln_pow(g1n, m + 1), ())
        trace.steps.append(RootStep(m, g, h, gn, hn, ok_g, ok_h))
        if not (ok_g and ok_h):
            trace.certified = False
            trace.reason = f"contraction conditions failed at step {m}"
            trace.result = x
            return x, trace
        if hn.is_zero or ln_le(hn, tol, ()):
            trace.result = x
            trace.certified = True
            trace.reason = reason
            return x, trace
        # y ~ x^(1-p), one Newton step for the inverse, then one for the root
        y = _tame(y * (two - xp1 * y), work_depth)
        root = _tame(x - (h * y).div_int(p), work_depth)
        g = root - x
        x = root
    trace.result = x
    trace.reason = f"tolerance not reached in {max_steps} steps"
    raise MaxStepsExceeded(trace.reason, trace)


def verify_trace(trace: RootTrace) -> bool:
    """Exact replay of identity (1) and conditions (2)-(4) for every step."""
    f = trace.target
    one = f.ring_one()
    if not trace.steps:
        return trace.result is not None and trace.result.equals(one)
    partial = one
    g1n = trace.contraction
    diff = f - one
    if diff.is_ring_zero() or diff.norm_ln() != g1n:
        return False
    for s in trace.steps:
        partial = partial + s.g
        lhs = partial.pow_int(trace.prime)
        if not lhs.equals(f + s.h):
            return False
        gn = s.g.norm_ln()
        hn = s.h.norm_ln() if not s.h.is_ring_zero() else LogNorm.zero(0)
        if gn != s.norm_g or hn != s.norm_h:
            return False
        if not ln_le(gn, ln_pow(g1n, s.index), ()):
            return False
        if not (hn.is_zero or ln_le(hn, ln_pow(g1n, s.index + 1), ())):
            return False
    return trace.result is None or trace.result.equals(partial)


@dataclass
class NearRootResult:
    root: object
    trace: RootTrace
    recentred: bool   # |root - g_root| < |root| verified


def pth_root_near(f, g, g_root, p: int,
                  max_steps: int = DEFAULT_MAX_STEPS) -> NearRootResult:
    """Root of f from a known root of a nearby unit g (|f - g| < |f|)."""
    if not g_root.pow_int(p).equals(g):
        raise PreconditionFailed("g_root is not a p-th root of g")
    diff = f - g
    if diff.is_ring_zero():
        trace = RootTrace(p, f, LogNorm.zero(0), [], g_root, True,
                          "f = g; root reused")
        return NearRootResult(g_root, trace, True)
    fn = f.norm_ln()
    if ln_compare(diff.norm_ln(), fn, ()) is not Cmp.LT:
        raise PreconditionFailed("|f - g| < |f| fails; cannot recentre")
    u = g.invert() * f
    unit_root, trace = pth_root_near_one(u, p, max_steps)
    root = g_root * unit_root
    sep = root - g_root
    recentred = sep.is_ring_zero() or \
        ln_compare(sep.norm_ln(), root.norm_ln(), ()) is Cmp.LT
    return NearRootResult(root, trace, recentred)


@dataclass
class RootTower:
    prime: int
    elements: list   # [f, f^(1/p), f^(1/p^2), ...]

    @property
    def depth(self) -> int:
        return len(self.elements) - 1

    def to_json(self):
        return {
            "claim": "compatible-p-power-root-tower",
            "prime": self.prime,
            "depth": self.depth,
            "elements": [_obj_json(x) for x in self.elements],
        }


def build_tower(f, p: int, depth: int) -> RootTower:
    """Compatible p-power roots [f, f^(1/p), ..., f^(1/p^depth)] of the
    scalar f inside the field, by the deterministic Hensel path.
    Raises TowerObstruction at the first level with no in-field root."""
    elements = [f]
    current = f
    for e in range(1, depth + 1):
        try:
            current = scalar_pth_root(current, p)
        except (NoRootInField, PreconditionFailed) as exc:
            raise TowerObstruction(
                f"no in-field {p}-th root at tower level {e}: {exc}", e
            ) from exc
        elements.append(current)
    return RootTower(p, elements)


def verify_tower(tower: RootTower) -> bool:
    """Exact recomputation of every tower step at working precision."""
    els = tower.elements
    if not els:
        return False
    for e in range(len(els) - 1):
        if not els[e + 1].pow_int(tower.prime).equals(els[e]):
            return False
    return True


def tower_unit_certificate(tower: RootTower):
    """Consequence check: the tower's base has nonzero norm and an inverse.

    Returns (ok, inverse) where ok demands norm(f) != 0 and f * f^-1 = 1.
    """
    base = tower.elements[0]
    if base.is_ring_zero():
        return False, None
    if base.norm_ln().is_zero:
        return False, None
    inv = base.invert()
    ok = (base * inv).equals(base.ring_one())
    return ok, inv
