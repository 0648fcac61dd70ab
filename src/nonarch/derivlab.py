"""Explicit unbounded homomorphisms and their machine-checkable evidence.

Construction chain, all exactly computable:

* a sparse gap series f = sum T^(i_m) whose exponent gaps grow so fast
  that no bounded-degree algebraic relation over k(T) can hold
  (``nonintegral_certificate`` refutes relations by exact linear algebra
  on the columns T^e f^(n-i), from powers of f taken by
  ``coeffs.poly_mul``, and refuses a system larger than
  ``linalg.MAX_WORK``);
* the derivation d/dF on the subring k[T][f], realised on bivariate
  polynomials P(T, F) (``deriv_eval``), with d(f) = 1;
* the dual-number homomorphism phi(P) = (P(T,f), dP/dF(T,f)) into the
  square-zero extension, whose norm-ratio table diverges in characteristic
  0 (``unboundedness_table``);
* in characteristic p, a series with p-independent coefficients
  (``pbasis_series``) and an exhaustive-span certificate that no bounded
  relation f0^p g0 f = sum g_i f_i^p omitting a declared p-basis generator
  exists (``p_independence_certificate``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations, islice
from fractions import Fraction

from .coeffs import poly_mul
from .errors import MissingCertificate, PreconditionFailed
from .fields import (PADIC, RATFUN_LAURENT, FieldSpec, Scalar)
from .lognorm import (Cmp, LogNorm, RadiusDecl, ln_compare, ln_mul, ln_pow,
                      log_q_interval, norm_exceeds)
from .linalg import MAX_WORK, nullspace, sparse_rank_mod_p
from .series import POWER, TateSeries
from .squarezero import SquareZeroRing

DENSE_ENTRY_LIMIT = 40_000


@dataclass
class Certificate:
    kind: str              # NON_INTEGRAL | P_INDEPENDENT | UNBOUNDED
    verdict: str           # certificate-specific verdict token
    params: dict
    witness: dict
    claim: str

    def to_json(self):
        return {"kind": self.kind, "claim": self.claim,
                "verdict": self.verdict, "params": self.params,
                "witness": self.witness}


def series_fingerprint(f: TateSeries) -> str:
    blob = json.dumps(f.to_json(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Sparse gap series


def sparse_indices(m: int):
    """Exponent sequence with super-factorial gaps: 2, 4, 11, 37, 153, ..."""
    if m < 1:
        raise ValueError("need at least one term")
    seq = [2]
    for j in range(1, m):
        seq.append(j * (1 + seq[-1]) + 1)
    return seq


@dataclass
class SparseSeries:
    series: TateSeries
    indices: list
    next_index: int
    completion_tail: LogNorm   # bound r^(i_{m+1}) for the omitted ideal tail


def sparse_series(m: int, spec: FieldSpec, radius: RadiusDecl) -> SparseSeries:
    """First m terms of the gap series, exact, plus completion semantics."""
    if m < 1:
        raise ValueError("a gap series needs at least one term")
    if not radius.asserts_irrational:
        raise PreconditionFailed(
            f"radius {radius.gen_id} is not declared outside |k^x|^Q")
    idx = sparse_indices(m + 1)
    one = Scalar.one(spec)
    ser = TateSeries(spec, POWER, (radius,),
                     {(i,): one for i in idx[:m]})
    return SparseSeries(ser, idx[:m], idx[m],
                        LogNorm.of(0, (idx[m],)))


# ---------------------------------------------------------------------------
# Non-integrality certificate


def _prime_entry(c: Scalar):
    """Coefficient as an element of the prime field (Fraction or residue)."""
    if not c.exact:
        raise PreconditionFailed("certificates need exact coefficients")
    if c.kind == PADIC:
        return c.to_fraction()
    unit = c.unit_part()
    if c.valuation() != 0 or set(unit) != {0}:
        raise PreconditionFailed(
            "certificate coefficients must be residue-field constants")
    u = unit[0]
    if isinstance(u, tuple):
        if len(u) <= 1:
            return u[0] if u else 0
    elif u.is_poly() and u.num.is_const():
        return u.num.const_value()
    raise PreconditionFailed(
        "certificate coefficients must lie in the prime field")


def _series_prime_coeffs(f: TateSeries):
    """{(exponent,): coefficient in the prime field} of a series in T."""
    out = {}
    for e, c in f.support.items():
        if len(e) != 1:
            raise PreconditionFailed(
                "relation certificates are single-variable")
        out[e] = _prime_entry(c)
    return out


def nonintegral_certificate(f, n_max: int, d_max: int) -> Certificate:
    """Brute-force refutation of algebraic relations of bounded degree.

    Searches for polynomials h_0..h_n over k with deg <= d_max satisfying
    h_0 f^n + h_1 f^(n-1) + ... + h_n = 0 (n = n_max).  The verdict is
    NON_INTEGRAL when the homogeneous system has only the trivial solution
    (or every solution forces h_0 = 0); a found relation with h_0 != 0 is
    returned as a witness.

    The columns T^e f^(n-i) stream from a generator into
    ``linalg.nullspace`` over the prime field (method tag
    ``dense-nullspace``, kept for artifact stability), so the system is
    never held as a whole; a large system with integer coefficients is
    first tried, from a fresh generator, for full column rank modulo
    ``CERT_PRIME`` (``sparse-rank-certificate``).

    With sparse metadata the claim transfers to the completed gap series:
    the degree-gap condition n_max * i_m + d_max < i_{m+1} guarantees the
    truncation determines every compared coefficient.
    """
    sparse, f = (f, f.series) if isinstance(f, SparseSeries) else (None, f)
    if n_max < 1 or d_max < 0:
        raise ValueError("need n_max >= 1 and d_max >= 0")
    params = {"n_max": n_max, "d_max": d_max,
              "series": series_fingerprint(f)}
    if sparse is not None:
        i_m = sparse.indices[-1]
        gap_ok = n_max * i_m + d_max < sparse.next_index
        params["faithful_degree"] = sparse.next_index - 1
        params["degree_gap"] = {
            "top_index": i_m, "next_index": sparse.next_index,
            "lhs": n_max * i_m + d_max, "holds": gap_ok}
        if not gap_ok:
            raise PreconditionFailed(
                f"degree gap fails: {n_max}*{i_m}+{d_max} >= "
                f"{sparse.next_index}; truncation is not faithful at these "
                "bounds")
    if not f.is_exact():
        raise PreconditionFailed("certificate needs an exact truncation")
    char = f.spec.char
    coeffs = _series_prime_coeffs(f)
    # integral rational coefficients become ints, reducible modulo a prime
    intish = char == 0 and all(v.denominator == 1 for v in coeffs.values())
    if intish:
        coeffs = {k: int(v) for k, v in coeffs.items()}
    (deg_f,) = max(coeffs, default=(0,))
    n_eqs = n_max * deg_f + d_max + 1
    width = d_max + 1
    n_unk = (n_max + 1) * width
    # powers of f over the prime field; the work counts the products, one
    # per equation and unknown and the nonzeros of T^e f^j (|f^j|)
    size = n_eqs + n_unk + width
    fpows = [{(0,): 1}]
    while len(fpows) <= n_max:
        size += len(fpows[-1]) * len(coeffs)
        if size > MAX_WORK:
            break
        fpows.append(poly_mul(fpows[-1], coeffs, char))
        size += width * len(fpows[-1])
    if size > MAX_WORK:
        raise PreconditionFailed(
            f"relation system of {n_eqs} equations and {n_unk} unknowns "
            f"exceeds the work cap of {MAX_WORK}")
    params["system"] = {"equations": n_eqs, "unknowns": n_unk}

    def columns():
        # column i*width + e, the unknown h_i[T^e], is T^e f^(n-i): its
        # row k + e holds the coefficient of T^k in f^(n-i)
        for i in range(n_max + 1):
            fpow = fpows[n_max - i]
            for e in range(width):
                yield {k + e: v for (k,), v in fpow.items()}

    # large rational systems: certify full column rank modulo a big prime
    # (a full-rank minor mod P is nonzero over Q)
    if intish and n_eqs * n_unk > DENSE_ENTRY_LIMIT:
        r = sparse_rank_mod_p(columns(), n_unk)
        if r == n_unk:
            params["method"] = "sparse-rank-certificate"
            return Certificate(
                "NON_INTEGRAL", "NON_INTEGRAL", params,
                {"rank": r, "unknowns": n_unk, "nullity": 0},
                "no-bounded-degree-algebraic-relation")
        # fall through to the exact path

    basis = nullspace(columns(), n_unk, char or None)
    params["method"] = "dense-nullspace"
    witness = {"rank": n_unk - len(basis), "unknowns": n_unk,
               "nullity": len(basis)}
    # h_0 occupies columns 0..d_max
    monic_vec = next((vec for vec in basis if min(vec) < width), None)
    if monic_vec is not None:
        witness["relation"] = {f"h{col // width}[T^{col % width}]": str(v)
                               for col, v in monic_vec.items()}
    elif basis:
        witness["note"] = "solutions exist but all force h_0 = 0"
    return Certificate("NON_INTEGRAL", "NON_INTEGRAL" if monic_vec is None
                       else "RELATION_FOUND", params, witness,
                       "no-bounded-degree-algebraic-relation")


# ---------------------------------------------------------------------------
# The derivation d/dF on k[T][f]


class PolyInTF:
    """Bivariate polynomial P(T, F) with scalar coefficients, canonical."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: FieldSpec, terms):
        self.spec = spec
        cleaned = {}
        for (dt, df), c in terms.items():
            if not isinstance(c, Scalar):
                c = Scalar.from_fraction(spec, c)
            if dt < 0 or df < 0:
                raise ValueError("polynomial degrees must be >= 0")
            if not c.is_ring_zero():
                cleaned[(dt, df)] = c
        self.terms = cleaned

    @classmethod
    def T(cls, spec, k: int = 1):
        return cls(spec, {(k, 0): Scalar.one(spec)})

    @classmethod
    def F(cls, spec, k: int = 1):
        return cls(spec, {(0, k): Scalar.one(spec)})

    def deg_T(self):
        return max((dt for dt, _ in self.terms), default=0)

    def deg_F(self):
        return max((df for _, df in self.terms), default=0)

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            if k in out:
                s = out[k] + c
                if s.is_ring_zero():
                    del out[k]
                else:
                    out[k] = s
            else:
                out[k] = c
        return PolyInTF(self.spec, out)

    def __neg__(self):
        return PolyInTF(self.spec, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # not coeffs.poly_mul: the coefficients are capped-precision Scalars
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                v = c1 * c2
                if k in out:
                    s = out[k] + v
                    if s.is_ring_zero():
                        del out[k]
                    else:
                        out[k] = s
                elif not v.is_ring_zero():
                    out[k] = v
        return PolyInTF(self.spec, out)

    def d_dF(self):
        out = {}
        for (dt, df), c in self.terms.items():
            if df == 0:
                continue
            scaled = c * Scalar.from_int(self.spec, df)
            if not scaled.is_ring_zero():
                out[(dt, df - 1)] = scaled
        return PolyInTF(self.spec, out)

    def eval_at(self, f: TateSeries) -> TateSeries:
        pows = {0: f.ring_one()}

        def fpow(k):
            if k not in pows:
                pows[k] = fpow(k - 1) * f
            return pows[k]

        acc = TateSeries.zero(f.spec, f.radii, f.kind)
        for (dt, df), c in sorted(self.terms.items()):
            term = fpow(df).scalar_mul(c)
            if dt:
                term = term * TateSeries.monomial(
                    f.spec, f.radii, (dt,) + (0,) * (f.nvars - 1),
                    Scalar.one(f.spec), f.kind)
            acc = acc + term
        return acc


def _require_cover(cert: Certificate, P: PolyInTF, f: TateSeries):
    if cert is None:
        raise MissingCertificate("derivation needs a transcendence "
                                 "certificate for f")
    if cert.kind != "NON_INTEGRAL" or cert.verdict != "NON_INTEGRAL":
        raise MissingCertificate("certificate does not establish "
                                 "non-integrality")
    if cert.params.get("series") != series_fingerprint(f):
        raise MissingCertificate("certificate was issued for another series")
    if cert.params["n_max"] < P.deg_F() or cert.params["d_max"] < P.deg_T():
        raise MissingCertificate(
            f"certificate degrees (n_max={cert.params['n_max']}, "
            f"d_max={cert.params['d_max']}) do not cover P "
            f"(deg_F={P.deg_F()}, deg_T={P.deg_T()})")


def deriv_eval(P: PolyInTF, f: TateSeries, cert: Certificate) -> TateSeries:
    """(dP/dF)(T, f): the derivation vanishing on k[T] with value 1 on f."""
    _require_cover(cert, P, f)
    return P.d_dF().eval_at(f)


def phi(P: PolyInTF, f: TateSeries, cert: Certificate,
        ring: SquareZeroRing = None):
    """Dual-number homomorphism P -> (P(T,f), dP/dF(T,f))."""
    _require_cover(cert, P, f)
    if ring is None:
        ring = SquareZeroRing(f.ring_one())
    return ring.elem(P.eval_at(f), P.d_dF().eval_at(f))


# ---------------------------------------------------------------------------
# Divergence table


def unboundedness_table(terms: int, spec: FieldSpec, radius: RadiusDecl,
                        bound=Fraction(10) ** 6) -> Certificate:
    """Norm-ratio table ||phi(g_n)|| / ||g_n|| for tail slices g_n = f - f_n.

    Ratios equal r^(-i_{n+1}) exactly in exponent form and grow without
    bound; the verdict is UNBOUNDED once they are strictly increasing and
    certified to exceed ``bound``.  Characteristic 0 only: every field of
    characteristic p here is F-finite, where every homomorphism of
    affinoid algebras is bounded; there f = sum_{l<p} T^l g_l^p, so every
    derivation with D(T) = 0 kills f, and phi (which needs D(f) = 1)
    extends to no homomorphism on A = k<T/r>.
    """
    if spec.char != 0:
        raise PreconditionFailed(
            f"the divergence table needs characteristic 0: "
            f"{spec.describe()} is F-finite, so every homomorphism of its "
            f"affinoid algebras is bounded")
    if terms < 2:
        raise ValueError("need at least two terms for one table row")
    sp = sparse_series(terms, spec, radius)
    f = sp.series
    radii = f.radii
    q = spec.residue_prime
    # r < 1 must be certified; sparse_series admits only a verified
    # irrational quadratic radius, whose comparison with 1 is exact
    if ln_compare(LogNorm.of(0, (1,)), LogNorm.identity(1),
                  (radius,)) is not Cmp.LT:
        raise PreconditionFailed("table needs a radius r < 1")
    cert = nonintegral_certificate(sp, 1, sp.indices[-2])
    if cert.verdict != "NON_INTEGRAL":
        raise PreconditionFailed("transcendence certificate failed")
    ring = SquareZeroRing(f.ring_one())
    one_series = f.ring_one()
    rows = []
    ratios = []
    first_exceed = None
    bound = Fraction(bound)
    for n in range(1, terms):
        _, g_n = f.truncate(sp.indices[n - 1])
        P_n = PolyInTF.F(spec) - PolyInTF(
            spec, {(i, 0): Scalar.one(spec) for i in sp.indices[:n]})
        image = phi(P_n, f, cert, ring)
        if not image.a.equals(g_n) or not image.b.equals(one_series):
            raise AssertionError("dual-number image mismatch")
        g_norm, g_exact = g_n.gauss_norm()
        expect_g = LogNorm.of(0, (sp.indices[n],))
        if not g_exact or g_norm != expect_g:
            raise AssertionError("tail-slice norm mismatch")
        img_norm = image.norm_ln()
        ratio = ln_mul(img_norm, ln_pow(g_norm, -1))
        expect_ratio = LogNorm.of(0, (-sp.indices[n],))
        if ratio != expect_ratio:
            raise AssertionError("ratio is not r^(-i_{n+1})")
        exceeds = norm_exceeds(ratio, radii, q, bound)
        if exceeds and first_exceed is None:
            first_exceed = n
        loI, hiI = log_q_interval(ratio, radii)
        rows.append({
            "n": n,
            "tail_index": sp.indices[n],
            "tail_norm": g_norm.to_json(),
            "image_norm": img_norm.to_json(),
            "ratio": ratio.to_json(),
            "ratio_log_q": [str(loI), str(hiI)],
            "exceeds_bound": exceeds,
        })
        ratios.append(ratio)
    monotone = all(
        ln_compare(ratios[i + 1], ratios[i], radii) is Cmp.GT
        for i in range(len(ratios) - 1))
    verdict = "UNBOUNDED" if monotone and first_exceed is not None \
        else "NOT_CERTIFIED"
    params = {"terms": terms, "radius": radius.to_json(),
              "bound": str(bound), "field": spec.to_json(),
              "transcendence": cert.params}
    witness = {"rows": rows, "strictly_increasing": monotone,
               "first_row_exceeding_bound": first_exceed}
    return Certificate("UNBOUNDED", verdict, params, witness,
                       "norm-ratio-divergence-of-dual-number-map")


# ---------------------------------------------------------------------------
# Characteristic-p side: p-basis series and independence


def pbasis_generators(spec: FieldSpec):
    """Deterministic p-basis generators, produced lazily: t, u1..uN, then
    the squarefree products in graded lex order, 2^(N+1) - 1 in all."""
    names = ["t"] + [f"u{i + 1}" for i in range(spec.nvars)]
    for size in range(1, len(names) + 1):
        for combo in combinations(range(len(names)), size):
            exp = [0] * len(names)
            for i in combo:
                exp[i] = 1
            yield "*".join(names[i] for i in combo), tuple(exp)


def _gen_scalar(spec: FieldSpec, exp) -> Scalar:
    s = Scalar.one(spec)
    if exp[0]:
        s = s * Scalar.t_power(spec, exp[0])
    for i, k in enumerate(exp[1:]):
        if k:
            s = s * Scalar.uvar(spec, i).pow_int(k)
    return s


def pbasis_series(spec: FieldSpec, m: int, radius: RadiusDecl) -> TateSeries:
    """f = x_{l_0} + x_{l_1} T + ... + x_{l_{m-1}} T^(m-1) over the
    rational-function Laurent field ``spec``, T of radius ``radius``, with
    distinct p-basis coefficient monomials of norm <= 1 (x_{l_0} = t)."""
    if spec.kind != RATFUN_LAURENT:
        raise PreconditionFailed("p-basis series live over the "
                                 "rational-function Laurent field")
    declared = 2 ** (spec.nvars + 1) - 1
    if m > declared:
        raise PreconditionFailed(
            f"only {declared} p-basis monomials declared; cannot build "
            f"{m} terms")
    support = {(i,): _gen_scalar(spec, exp) for i, (_, exp)
               in enumerate(islice(pbasis_generators(spec), m))}
    return TateSeries(spec, POWER, (radius,), support)


def _coefficient_monomials(f: TateSeries):
    """[(T_exp, exps, residue)] with exps = (t_deg, u1_deg, .., uN_deg)."""
    out = []
    for e, c in sorted(f.support.items()):
        if len(e) != 1:
            raise PreconditionFailed("independence check is single-variable")
        if not c.exact:
            raise PreconditionFailed("independence check needs exact "
                                     "coefficients")
        v = c.valuation()
        if v < 0:
            raise PreconditionFailed("coefficients must have norm <= 1")
        for off, rf in sorted(c.unit_part().items()):
            if not rf.is_poly():
                raise PreconditionFailed("coefficients must be polynomial "
                                         "in t and u")
            for ue, resid in sorted(rf.num.terms.items()):
                out.append((e[0], (v + off,) + tuple(ue), resid))
    return out


def p_independence_certificate(f: TateSeries, T_deg_max: int,
                               coeff_deg_max: int) -> Certificate:
    """Exhaustive-span refutation of bounded relations
    f0^p g0 f = g1 f1^p + ... + gn fn^p whose k(T)-coefficients omit a
    declared p-basis generator.

    The span is checked one coordinate at a time: in each of T, t, u1..uN
    a product m * m'^p inside the bounds has exponent a + p*b, with a and b
    ranging over that coordinate's bound independently of the others, so
    its exponent patterns are exactly the product of the sets
    S_i = {a + p*b}.  The recorded counts are those of all (m, m') pairs.

    For each generator x present in f with exponent not divisible by p:
    with x-free m, the x-exponents form S_x = {p*b}, all = 0 mod p,
    while f contributes a monomial of x-degree != 0 mod p; multiplying by
    f0^p g0 preserves x-degrees mod p, so the obstruction coordinate of the
    left side vanishes only when f0^p g0 does, i.e. only trivially
    (polynomial rings over a field are domains).

    A planted relation is instead *found* by splitting each exponent of
    each monomial of f inside its S_i, and reported with the decomposition.
    """
    if T_deg_max < 0 or coeff_deg_max < 0:
        raise ValueError("need T_deg_max >= 0 and coeff_deg_max >= 0")
    spec = f.spec
    if spec.kind != RATFUN_LAURENT:
        raise PreconditionFailed("independence certificate targets the "
                                 "rational-function Laurent field")
    p = spec.residue_prime
    nv = spec.nvars + 1   # coefficient variables: t, u1..uN
    monos = _coefficient_monomials(f)
    if not monos:
        raise PreconditionFailed("empty series has no independence content")
    names = ["t"] + [f"u{i + 1}" for i in range(spec.nvars)]
    params = {"p": p, "num_pbasis_vars": spec.nvars,
              "T_deg_max": T_deg_max, "coeff_deg_max": coeff_deg_max,
              "series": series_fingerprint(f)}
    # number of monomials m (equally m') inside the bounds
    m_side = (T_deg_max + 1) * (coeff_deg_max + 1) ** nv
    present = [i for i in range(nv)
               if any(exps[i] % p for _, exps, _ in monos)]
    witness = {"obstructions": [], "products_enumerated": 0}

    if present:
        checked = m_side // (coeff_deg_max + 1) * m_side   # |G_lambda| * |H|
        for var in present:
            witness["products_enumerated"] += checked
            obs = next((T, exps, resid) for T, exps, resid in monos
                       if exps[var] % p)
            witness["obstructions"].append({
                "lambda": names[var],
                "span_products_checked": checked,
                # records no check; kept for the bytes until a SCHEMA bump
                "span_parity_ok": True,
                "obstruction_monomial": {"T": obs[0],
                                         "exps": list(obs[1]),
                                         "coeff": obs[2]},
            })
        witness["conclusion"] = (
            "every generator-omitting relation forces f0^p*g0*f = 0; "
            "polynomial rings over a field have no zero divisors")
        return Certificate("P_INDEPENDENT", "P_INDEPENDENT", params, witness,
                           "p-basis-independence-of-series-coefficients")

    # no obstruction available: look for a planted decomposition
    witness["products_enumerated"] = m_side * m_side

    def split_component(x, bound):
        for a in range(min(x, bound) + 1):
            if (x - a) % p == 0 and (x - a) // p <= bound:
                return a, (x - a) // p
        return None

    bounds = (T_deg_max,) + (coeff_deg_max,) * nv
    decomposition = []
    for T, exps, resid in monos:
        parts = [split_component(x, b) for x, b in zip((T,) + exps, bounds)]
        if any(s is None for s in parts):
            witness["missing_monomial"] = {"T": T, "exps": list(exps)}
            return Certificate(
                "P_INDEPENDENT", "NOT_CERTIFIED", params, witness,
                "p-basis-independence-of-series-coefficients")
        g = tuple(s[0] for s in parts)
        h = tuple(s[1] for s in parts)
        decomposition.append({
            "monomial": {"T": T, "exps": list(exps), "coeff": resid},
            "g_monomial": {"T": g[0], "exps": list(g[1:])},
            "pth_power_monomial": {"T": h[0], "exps": list(h[1:])},
        })
    witness["relation"] = decomposition
    return Certificate("P_INDEPENDENT", "RELATION_FOUND", params, witness,
                       "p-basis-independence-of-series-coefficients")
