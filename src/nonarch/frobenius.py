"""p-th power decompositions over F-finite Laurent fields.

Over k = F_Q((t)) with characteristic p the field alone fixes the basis
1, t, ..., t^(p-1) of k over k^p (`pth_power_basis`), and every scalar
splits uniquely as a = sum a_i^p t^i by grouping t-exponents modulo p
(coefficient roots are Frobenius inverses in F_Q).  Series split the same
way along T-exponents: f = sum f_{e,i}^p t^i T^e.  Both round-trips are
exact, the basis-weighted norm ratio is exactly 1, and the formal
T-derivative is spanned by the d(t^i T^e), which is the operational
content of the vanishing of the relative differentials on truncations.
"""

from __future__ import annotations

from .errors import PrecisionExhausted, PreconditionFailed
from .fields import FQ_LAURENT, FieldSpec, Scalar
from .lognorm import Cmp, LogNorm, ln_compare, ln_max, ln_mul, ln_pow
from .series import TateSeries


def _prime(spec: FieldSpec) -> int:
    """The characteristic p of F_Q((t)); every other field is refused."""
    if spec.kind != FQ_LAURENT:
        raise PreconditionFailed(
            "p-th power decompositions are implemented for F_Q((t))")
    return spec.char


def pth_power_basis(spec: FieldSpec):
    """[1, t, ..., t^(p-1)], the basis of F_Q((t)) over its p-th powers."""
    return [Scalar.one(spec)] + [Scalar.t_power(spec, i)
                                 for i in range(1, _prime(spec))]


def scalar_decompose(a: Scalar):
    """[a_0..a_(p-1)] with a = sum a_i^p t^i, exact to working precision."""
    spec = a.spec
    p = _prime(spec)
    dom = spec.domain()
    parts = [dict() for _ in range(p)]
    if a.is_ring_zero():
        return [Scalar.zero(spec) for _ in range(p)]
    v = a.valuation()
    for off, c in a.unit_part().items():
        j = v + off
        i = j % p
        root = dom.char_root(c)
        parts[i][(j - i) // p] = root
    out = []
    known = a._known_abs()
    for i in range(p):
        if not parts[i]:
            out.append(Scalar.zero(spec))
            continue
        vi = min(parts[i])
        if known is not None:
            # a_i known modulo t^ceil((known - i)/p)
            abs_known = -((-(known - i)) // p)
            if abs_known <= vi:
                raise PrecisionExhausted(
                    "component indistinguishable from zero at the cap")
            prec = abs_known - vi
        else:
            prec = None
        out.append(Scalar._laurent(
            spec, vi, {k - vi: c for k, c in parts[i].items()}, prec))
    return out


def scalar_reconstruct(parts) -> Scalar:
    basis = pth_power_basis(parts[0].spec)
    acc = Scalar.zero(parts[0].spec)
    for ai, x in zip(parts, basis):
        acc = acc + ai.pow_int(len(basis)) * x
    return acc


def series_decompose(f: TateSeries):
    """{(e, i): f_{e,i}} with f = sum f_{e,i}^p t^i T^e.

    e runs over {0..p-1}^n (T-exponent residues), i over basis indices;
    f_{e,i} collects the i-th scalar component of the coefficients at
    exponents congruent to e, with exponents divided by p."""
    p = _prime(f.spec)
    if not f.is_exact():
        raise PreconditionFailed("decomposition needs an exact truncation")
    groups = {}
    for exp, c in f.support.items():
        e = tuple(x % p for x in exp)
        red = tuple((x - r) // p for x, r in zip(exp, e))
        comps = scalar_decompose(c)
        for i, ai in enumerate(comps):
            if ai.is_ring_zero():
                continue
            groups.setdefault((e, i), {})[red] = ai
    return {key: TateSeries(f.spec, f.kind, f.radii, sup)
            for key, sup in groups.items()}


def _frobenius_stretch(g: TateSeries, p: int) -> TateSeries:
    """g(T)^p as a series: coefficients^p at exponents * p."""
    spec = g.spec
    out = {}
    for exp, c in g.support.items():
        out[tuple(p * x for x in exp)] = c.pow_int(p)
    return TateSeries(spec, g.kind, g.radii, out)


def series_reconstruct(parts, like: TateSeries) -> TateSeries:
    spec = like.spec
    basis = pth_power_basis(spec)
    acc = TateSeries.zero(spec, like.radii, like.kind)
    for (e, i), g in sorted(parts.items()):
        term = _frobenius_stretch(g, len(basis))
        mono = TateSeries.monomial(spec, like.radii, e, basis[i], like.kind)
        acc = acc + term * mono
    return acc


def verify_norm_bound(a: Scalar):
    """Two-sided comparison of max_i |a_i^p t^i| against |a|.

    For t-adic fields the decomposition groups by valuation residue, so
    the basis-weighted maximum equals |a| exactly; `pass` reports whether
    the observed ratio is 1 (the bound with C = 1)."""
    if a.is_ring_zero():
        raise PreconditionFailed("norm bound needs a nonzero scalar")
    basis = pth_power_basis(a.spec)
    best = LogNorm.zero()
    for ai, x in zip(scalar_decompose(a), basis):
        if not ai.is_ring_zero():
            best = ln_max(best, ln_mul(ln_pow(ai.norm_ln(), len(basis)),
                                       x.norm_ln()), ())
    ratio = ln_mul(best, ln_pow(a.norm_ln(), -1))
    return ratio, ratio == LogNorm.identity(0)


def termwise_tail_bound(f: TateSeries) -> bool:
    """Basis-weighted termwise bound with C = 1:

        (|a_{p nu' + e, i}| r^(nu'))^p * |t^i| <= |a_{p nu' + e}| r^(p nu')

    for every decomposed term (the convergence estimate for the component
    series, in p-th-power form to keep exponents integral)."""
    basis = pth_power_basis(f.spec)
    p = len(basis)
    radii = f.radii
    for (e, i), g in series_decompose(f).items():
        weight = basis[i].norm_ln(len(radii))
        for red, c in g.support.items():
            orig = tuple(p * x + r for x, r in zip(red, e))
            lhs = ln_mul(ln_pow(LogNorm(c.valuation(), red), p), weight)
            rhs = ln_mul(LogNorm(f.support[orig].valuation(), orig),
                         LogNorm(0, tuple(-x for x in e)))
            if ln_compare(lhs, rhs, radii) is Cmp.GT:
                return False
    return True


def derivative_span_witness(f: TateSeries, parts) -> bool:
    """Check d f / d T_j = sum f_{e,i}(T)^p t^i e_j T^(e - delta_j) exactly,
    for the decomposition ``parts = series_decompose(f)``.

    The p-th power blocks are constant for the derivative (their exponents
    are multiples of p), so the formal derivative of f must reproduce from
    the decomposition with only the basis monomials differentiated."""
    if not f.is_exact():
        raise PreconditionFailed("witness needs an exact truncation")
    spec = f.spec
    basis = pth_power_basis(spec)
    p = len(basis)
    for var in range(f.nvars):
        lhs = f.formal_derivative(var)
        acc = TateSeries.zero(spec, f.radii, f.kind)
        for (e, i), g in sorted(parts.items()):
            ej = e[var]
            if ej % p == 0:
                continue
            block = _frobenius_stretch(g, p)
            coeff = basis[i] * Scalar.from_int(spec, ej)
            if coeff.is_ring_zero():
                continue
            shifted = list(e)
            shifted[var] = ej - 1
            mono = TateSeries.monomial(spec, f.radii, tuple(shifted), coeff,
                                       f.kind)
            acc = acc + block * mono
        if not lhs.equals(acc):
            return False
    return True


def decomposition_artifact(f: TateSeries):
    """JSON-ready decomposition with the round-trip verdict."""
    basis = pth_power_basis(f.spec)
    parts = series_decompose(f)
    return {
        "claim": "pth-power-basis-decomposition-round-trip",
        "basis": {"field": f.spec.to_json(), "prime": len(basis),
                  "elements": [x.to_literal() for x in basis]},
        "parts": {
            ",".join([*(str(x) for x in e), str(i)]): g.to_json()
            for (e, i), g in sorted(parts.items())
        },
        "round_trip_exact": series_reconstruct(parts, f).equals(f),
        "derivative_span": derivative_span_witness(f, parts),
    }
