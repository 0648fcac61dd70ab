"""p-th power decompositions over F-finite Laurent fields.

Over k = F_Q((t)) with characteristic p the elements 1, t, ..., t^(p-1)
form a basis of k over k^p, and every scalar splits uniquely as
a = sum a_i^p x_i by grouping t-exponents modulo p (coefficient roots are
Frobenius inverses in F_Q).  Series split the same way along T-exponents:
f = sum f_{e,i}^p x_i T^e.  Both round-trips are exact, the basis-weighted
norm ratio is exactly 1, and the formal T-derivative is spanned by the
d(x_i T^e), which is the operational content of the vanishing of the
relative differentials on truncations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PrecisionExhausted, PreconditionFailed
from .fields import FQ_LAURENT, FieldSpec, Scalar
from .lognorm import Cmp, LogNorm, ln_compare, ln_max, ln_mul, ln_pow
from .series import TateSeries


@dataclass(frozen=True)
class PBasis:
    spec: FieldSpec
    prime: int

    def __post_init__(self):
        if self.spec.kind != FQ_LAURENT:
            raise PreconditionFailed(
                "p-th power decompositions are implemented for F_Q((t))")
        if self.prime != self.spec.char:
            raise PreconditionFailed(
                "the decomposition prime must be the field characteristic")

    @property
    def size(self) -> int:
        return self.prime

    def element(self, i: int) -> Scalar:
        """Basis element x_{i+1} = t^i."""
        if not 0 <= i < self.prime:
            raise IndexError("basis index out of range")
        if i == 0:
            return Scalar.one(self.spec)
        return Scalar.t_power(self.spec, i)

    def to_json(self):
        return {"field": self.spec.to_json(), "prime": self.prime,
                "elements": [self.element(i).to_literal()
                             for i in range(self.size)]}


def scalar_decompose(a: Scalar, basis: PBasis):
    """[a_1..a_s] with a = sum a_i^p x_i, exact to working precision."""
    spec = basis.spec
    if a.spec != spec:
        raise PreconditionFailed("scalar from another field")
    p = basis.prime
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


def scalar_reconstruct(parts, basis: PBasis) -> Scalar:
    spec = basis.spec
    acc = Scalar.zero(spec)
    for i, ai in enumerate(parts):
        acc = acc + ai.pow_int(basis.prime) * basis.element(i)
    return acc


def series_decompose(f: TateSeries, basis: PBasis):
    """{(e, i): f_{e,i}} with f = sum f_{e,i}^p x_i T^e.

    e runs over {0..p-1}^n (T-exponent residues), i over basis indices;
    f_{e,i} collects the i-th scalar component of the coefficients at
    exponents congruent to e, with exponents divided by p."""
    spec = basis.spec
    if f.spec != spec:
        raise PreconditionFailed("series from another field")
    if not f.is_exact():
        raise PreconditionFailed("decomposition needs an exact truncation")
    p = basis.prime
    n = f.nvars
    groups = {}
    for exp, c in f.support.items():
        e = tuple(x % p for x in exp)
        red = tuple((x - r) // p for x, r in zip(exp, e))
        comps = scalar_decompose(c, basis)
        for i, ai in enumerate(comps):
            if ai.is_ring_zero():
                continue
            groups.setdefault((e, i), {})[red] = ai
    return {key: TateSeries(spec, f.kind, f.radii, sup)
            for key, sup in groups.items()}


def _frobenius_stretch(g: TateSeries, p: int) -> TateSeries:
    """g(T)^p as a series: coefficients^p at exponents * p."""
    spec = g.spec
    out = {}
    for exp, c in g.support.items():
        out[tuple(p * x for x in exp)] = c.pow_int(p)
    return TateSeries(spec, g.kind, g.radii, out)


def series_reconstruct(parts, basis: PBasis, like: TateSeries) -> TateSeries:
    spec = basis.spec
    p = basis.prime
    acc = TateSeries.zero(spec, like.radii, like.kind)
    for (e, i), g in sorted(parts.items()):
        term = _frobenius_stretch(g, p)
        mono = TateSeries.monomial(spec, like.radii, e, basis.element(i),
                                   like.kind)
        acc = acc + term * mono
    return acc


def verify_norm_bound(a: Scalar, basis: PBasis):
    """Two-sided comparison of max_i |a_i^p x_i| against |a|.

    For t-adic fields the decomposition groups by valuation residue, so
    the basis-weighted maximum equals |a| exactly; `pass` reports whether
    the observed ratio is 1 (the bound with C = 1)."""
    if a.is_ring_zero():
        raise PreconditionFailed("norm bound needs a nonzero scalar")
    best = LogNorm.zero()
    for i, ai in enumerate(scalar_decompose(a, basis)):
        if not ai.is_ring_zero():
            best = ln_max(best, ln_mul(ln_pow(ai.norm_ln(), basis.prime),
                                       basis.element(i).norm_ln()), ())
    ratio = ln_mul(best, ln_pow(a.norm_ln(), -1))
    return ratio, ratio == LogNorm.identity(0)


def termwise_tail_bound(f: TateSeries, basis: PBasis) -> bool:
    """Basis-weighted termwise bound with C = 1:

        (|a_{p nu' + e, i}| r^(nu'))^p * |x_i| <= |a_{p nu' + e}| r^(p nu')

    for every decomposed term (the convergence estimate for the component
    series, in p-th-power form to keep exponents integral)."""
    p = basis.prime
    parts = series_decompose(f, basis)
    radii = f.radii
    for (e, i), g in parts.items():
        weight = basis.element(i).norm_ln(len(radii))
        for red, c in g.support.items():
            orig = tuple(p * x + r for x, r in zip(red, e))
            lhs = ln_mul(ln_pow(LogNorm(c.valuation(), red), p), weight)
            rhs = ln_mul(LogNorm(f.support[orig].valuation(), orig),
                         LogNorm(0, tuple(-x for x in e)))
            if ln_compare(lhs, rhs, radii) is Cmp.GT:
                return False
    return True


def derivative_span_witness(f: TateSeries, basis: PBasis) -> bool:
    """Check d f / d T_j = sum f_{e,i}(T)^p x_i e_j T^(e - delta_j) exactly.

    The p-th power blocks are constant for the derivative (their exponents
    are multiples of p), so the formal derivative of f must reproduce from
    the decomposition with only the basis monomials differentiated."""
    if not f.is_exact():
        raise PreconditionFailed("witness needs an exact truncation")
    p = basis.prime
    spec = basis.spec
    parts = series_decompose(f, basis)
    for var in range(f.nvars):
        lhs = f.formal_derivative(var)
        acc = TateSeries.zero(spec, f.radii, f.kind)
        for (e, i), g in sorted(parts.items()):
            ej = e[var]
            if ej % p == 0:
                continue
            block = _frobenius_stretch(g, p)
            coeff = basis.element(i) * Scalar.from_int(spec, ej)
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


def decomposition_artifact(f: TateSeries, basis: PBasis):
    """JSON-ready decomposition with the round-trip verdict."""
    parts = series_decompose(f, basis)
    recon = series_reconstruct(parts, basis, f)
    ok = recon.equals(f)
    return {
        "claim": "pth-power-basis-decomposition-round-trip",
        "basis": basis.to_json(),
        "parts": {
            ",".join([*(str(x) for x in e), str(i)]): g.to_json()
            for (e, i), g in sorted(parts.items())
        },
        "round_trip_exact": ok,
        "derivative_span": derivative_span_witness(f, basis),
    }
