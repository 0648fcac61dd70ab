"""Gap series, relation certificates, the derivation and the divergence
table."""

import inspect
import random
from fractions import Fraction
from itertools import combinations, islice

import pytest

from nonarch import (FieldSpec, LogNorm, MissingCertificate, PolyInTF,
                     PrecisionExhausted, PreconditionFailed, RadiusDecl,
                     Scalar, TateSeries, derivlab, nonintegral_certificate,
                     p_independence_certificate, pbasis_series, phi,
                     ln_mul, scalar_from_literal, sparse_indices,
                     sparse_series, unboundedness_table)
from nonarch.cli import DEFAULT_CONFIG
from nonarch.coeffs import poly_mul
from nonarch.derivlab import pbasis_generators
from nonarch.fields import FQ_LAURENT, PADIC, RATFUN_LAURENT
from nonarch.linalg import MAX_WORK
from nonarch.series import POWER
from nonarch.squarezero import SquareZeroRing

Q3 = FieldSpec(PADIC, 3, precision_cap=40)
F2T = FieldSpec(FQ_LAURENT, 2, field_size=2, precision_cap=64)
RF2 = FieldSpec(RATFUN_LAURENT, 2, nvars=3, precision_cap=64)
R1 = RadiusDecl.default("r1")
R06 = RadiusDecl.rational_stub("r06", Fraction(3, 5))


def test_sparse_indices():
    assert sparse_indices(1) == [2]
    assert sparse_indices(4) == [2, 4, 11, 37]
    assert sparse_indices(5) == [2, 4, 11, 37, 153]


def test_sparse_series():
    sp = sparse_series(2, Q3, R1)
    assert sorted(e[0] for e in sp.series.support) == [2, 4]
    sp3 = sparse_series(3, Q3, R1)
    assert sorted(e[0] for e in sp3.series.support) == [2, 4, 11]
    n, exact = sp3.series.gauss_norm()
    assert exact and n == LogNorm.of(0, (2,))
    assert sp3.completion_tail == LogNorm.of(0, (37,))
    undeclared = RadiusDecl.rational_stub("raw", Fraction(1, 2))
    with pytest.raises(PreconditionFailed):
        sparse_series(2, Q3, undeclared)


def test_nonintegral_acceptance_case():
    sp = sparse_series(3, Q3, R1)
    cert = nonintegral_certificate(sp, 2, 3)
    assert cert.verdict == "NON_INTEGRAL"
    assert cert.witness["rank"] == cert.witness["unknowns"] == 12
    assert cert.params["degree_gap"]["holds"]


def test_nonintegral_controls():
    fT = TateSeries.monomial(Q3, (R1,), 1, Scalar.one(Q3))
    c = nonintegral_certificate(fT, 1, 1)
    assert c.verdict == "RELATION_FOUND"
    assert set(c.witness["relation"]) == {"h0[T^0]", "h1[T^1]"}
    fT2 = TateSeries.monomial(Q3, (R1,), 2, Scalar.one(Q3))
    c2 = nonintegral_certificate(fT2, 1, 2)
    assert c2.verdict == "RELATION_FOUND"


def test_degree_gap_precondition():
    sp = sparse_series(3, Q3, R1)
    with pytest.raises(PreconditionFailed):
        nonintegral_certificate(sp, 4, 3)    # 4*11 + 3 >= 37


def test_nonintegral_char_p_field():
    sp = sparse_series(3, F2T, R1)
    cert = nonintegral_certificate(sp, 2, 3)
    assert cert.verdict == "NON_INTEGRAL"
    assert cert.witness["rank"] == 12
    fT = TateSeries.monomial(F2T, (R1,), 1, Scalar.one(F2T))
    assert nonintegral_certificate(fT, 1, 1).verdict == "RELATION_FOUND"


def test_large_certificate_fast_path():
    sp = sparse_series(6, Q3, R1)
    cert = nonintegral_certificate(sp, 1, 153)
    assert cert.verdict == "NON_INTEGRAL"
    assert cert.params["method"] == "sparse-rank-certificate"


def ref_system_columns(coeffs, n_max, d_max, char):
    """The relation system as the old code built it: one dict per
    equation, transposed into columns by the old ``linalg._columns``."""
    (deg_f,) = max(coeffs, default=(0,))
    n_eqs = n_max * deg_f + d_max + 1
    width = d_max + 1
    n_unk = (n_max + 1) * width
    fpows = [{(0,): 1}]
    while len(fpows) <= n_max:
        fpows.append(poly_mul(fpows[-1], coeffs, char))
    rows = [{} for _ in range(n_eqs)]
    for i in range(n_max + 1):
        for (k,), v in fpows[n_max - i].items():
            for e in range(width):
                rows[k + e][i * width + e] = v
    cols = [{} for _ in range(n_unk)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            cols[c][r] = v
    return cols


def _record_linalg_calls(monkeypatch):
    """Wrap both linalg entry points as derivlab binds them; each call
    records (name, its columns, ncols)."""
    calls = []
    for name in ("sparse_rank_mod_p", "nullspace"):
        def record(columns, ncols, *rest, name=name,
                   real=getattr(derivlab, name)):
            assert inspect.isgenerator(columns)
            columns = list(columns)
            calls.append((name, columns, ncols))
            return real(columns, ncols, *rest)
        monkeypatch.setattr(derivlab, name, record)
    return calls


RANK, NULL = "sparse_rank_mod_p", "nullspace"
GAP6 = {e: 1 for e in sparse_indices(6)}


@pytest.mark.parametrize("spec,coeffs,n_max,d_max,called", [
    (Q3, {2: 1, 4: 1, 11: 1}, 2, 3, [NULL]),
    (Q3, {0: 3, 1: -2, 3: 5}, 3, 7, [NULL]),
    (Q3, GAP6, 1, 153, [RANK]),
    (Q3, {0: 3, 1: -2, 3: 5}, 1, 200, [RANK, NULL]),
    (Q3, {1: 1}, 1, 200, [RANK, NULL]),       # f = T: mod-P fallthrough
    (Q3, {0: 3, 2: Fraction(1, 2)}, 2, 3, [NULL]),
    (Q3, {0: Fraction(-2, 3), 5: Fraction(7, 9)}, 3, 40, [NULL]),
    (F2T, {1: 1, 3: 1}, 3, 4, [NULL]),
    (F2T, {0: 1, 2: 1, 5: 1}, 2, 30, [NULL]),
])
def test_streamed_columns_match_the_row_builder(monkeypatch, spec, coeffs,
                                                n_max, d_max, called):
    f = TateSeries(spec, POWER, (R1,), {
        (e,): Scalar.from_fraction(spec, Fraction(c))
        for e, c in coeffs.items()})
    want = ref_system_columns({(e,): c for e, c in coeffs.items()},
                              n_max, d_max, spec.char)
    calls = _record_linalg_calls(monkeypatch)
    nonintegral_certificate(f, n_max, d_max)
    assert [name for name, _, _ in calls] == called
    for _, columns, ncols in calls:
        assert ncols == len(want)
        assert columns == want


def test_oversized_system_refused_before_any_column(monkeypatch):
    def never(*args):
        raise AssertionError("a relation system reached the elimination")
    monkeypatch.setattr(derivlab, "sparse_rank_mod_p", never)
    monkeypatch.setattr(derivlab, "nullspace", never)
    with pytest.raises(PreconditionFailed,
                       match=r"relation system of \d+ equations and \d+ "
                             rf"unknowns exceeds the work cap of {MAX_WORK}"):
        unboundedness_table(10, Q3, R1)


def test_derivation_values():
    sp = sparse_series(3, Q3, R1)
    f = sp.series
    cert = nonintegral_certificate(sp, 2, 3)
    assert phi(PolyInTF.T(Q3, 3), f, cert).b.is_ring_zero()
    one_s = f.ring_one()
    assert phi(PolyInTF.F(Q3), f, cert).b.equals(one_s)
    P = PolyInTF.T(Q3) * PolyInTF.F(Q3, 2)
    expect = TateSeries.monomial(Q3, (R1,), 1,
                                 Scalar.from_int(Q3, 2)) * f
    assert phi(P, f, cert).b.equals(expect)


@pytest.mark.parametrize("spec", [Q3, F2T], ids=["Q3", "F2T"])
def test_phi_homomorphism(spec):
    sp = sparse_series(3, spec, R1)
    f, cert = sp.series, nonintegral_certificate(sp, 2, 3)
    F, T = PolyInTF.F(spec), PolyInTF.T(spec)
    assert phi(T, f, cert).b.is_ring_zero()
    img = phi(F, f, cert)
    assert img.a.equals(f) and img.b.equals(f.ring_one())
    # products need a wider certificate: deg_F <= 4, deg_T <= 6
    sp5 = sparse_series(5, spec, R1)
    f, cert = sp5.series, nonintegral_certificate(sp5, 4, 6)
    rng = random.Random(2)
    ring = SquareZeroRing(f.ring_one())
    for _ in range(25):
        P = _rand_poly(rng, spec)
        Q = _rand_poly(rng, spec)
        # ring homomorphism and the Leibniz rule, exercised through the ring product
        assert phi(P * Q, f, cert, ring).equals(
            phi(P, f, cert, ring) * phi(Q, f, cert, ring))
        assert phi(P + Q, f, cert, ring).equals(
            phi(P, f, cert, ring) + phi(Q, f, cert, ring))


def _rand_poly(rng, spec=Q3):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        c = Scalar.from_int(spec, rng.randint(-4, 4))
        if spec.kind != PADIC:
            c = c * Scalar.t_power(spec, rng.randint(-2, 2))
        terms[(rng.randint(0, 3), rng.randint(0, 2))] = c
    return PolyInTF(spec, terms)


def ref_d_dF(P):
    """dP/dF, as ``PolyInTF.d_dF`` built it before ``phi`` took one
    Horner pass."""
    out = {}
    for (dt, df), c in P.terms.items():
        if df == 0:
            continue
        scaled = c * Scalar.from_int(P.spec, df)
        if not scaled.is_ring_zero():
            out[(dt, df - 1)] = scaled
    return PolyInTF(P.spec, out)


def ref_scalar_mul(s, c):
    """c * s for a series s, as ``TateSeries.scalar_mul`` computed it."""
    if c.is_ring_zero():
        return TateSeries.zero(s.spec, s.radii, s.kind)
    tail = s.tail
    if not tail.is_zero:
        tail = ln_mul(tail, c.norm_ln(s.nvars))
    return TateSeries(s.spec, s.kind, s.radii,
                      {e: v * c for e, v in s.support.items()}, tail)


def ref_eval_at(P, f):
    """P(T, f), as ``PolyInTF.eval_at`` computed it: one monomial series
    product per term, on cached powers of f."""
    pows = {0: f.ring_one()}

    def fpow(k):
        if k not in pows:
            pows[k] = fpow(k - 1) * f
        return pows[k]

    acc = TateSeries.zero(f.spec, f.radii, f.kind)
    for (dt, df), c in sorted(P.terms.items()):
        term = ref_scalar_mul(fpow(df), c)
        if dt:
            term = term * TateSeries.monomial(
                f.spec, f.radii, (dt,) + (0,) * (f.nvars - 1),
                Scalar.one(f.spec), f.kind)
        acc = acc + term
    return acc


# coefficient literals of each configured field, with denominators on
# the p-adic side and generators besides t on the Laurent side
COEFFS = {
    PADIC: ["1", "-2", "3", "7/9", "-5/2", "4*3^-2", "0"],
    FQ_LAURENT: ["1", "t", "t^-2", "1 + t^3", "w", "w^2*t + 1", "0"],
    RATFUN_LAURENT: ["1", "t", "u1", "u2*t^-1 + u3", "u1*u2 + t^2", "0"],
}
FIELDS = {name: FieldSpec.from_json(decl)
          for name, decl in DEFAULT_CONFIG["fields"].items()}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_phi_matches_two_pass_evaluation(name):
    spec = FIELDS[name]
    sp = sparse_series(5, spec, R1)
    f, cert = sp.series, nonintegral_certificate(sp, 4, 6)
    assert cert.verdict == "NON_INTEGRAL"
    # F_2((t)) has no extension generator w
    coeffs = [scalar_from_literal(spec, s) for s in COEFFS[spec.kind]
              if "w" not in s or spec.field_size > 2]
    rng = random.Random(name)
    for _ in range(100):
        P = PolyInTF(spec, {(rng.randint(0, 6), rng.randint(0, 4)):
                            rng.choice(coeffs)
                            for _ in range(rng.randint(0, 8))})
        img = phi(P, f, cert)
        for got, want in ((img.a, ref_eval_at(P, f)),
                          (img.b, ref_eval_at(ref_d_dF(P), f))):
            assert got.support == want.support
            assert got.tail == want.tail and got.is_exact()


@pytest.mark.parametrize("op", ["sum", "product"])
def test_poly_coefficients_cancelling_at_the_cap_raise(op):
    # a lost coefficient has no tail to be folded into
    c = Scalar.from_int(Q3, 5).cap()
    P = PolyInTF(Q3, {(1, 0): c, (0, 1): c})
    Q = PolyInTF(Q3, {(1, 0): -c} if op == "sum"
                 else {(1, 0): c, (0, 1): -c})
    with pytest.raises(PrecisionExhausted):
        P + Q if op == "sum" else P * Q
    exact = Scalar.from_int(Q3, 5)
    P = PolyInTF(Q3, {(1, 0): exact, (0, 1): exact})
    assert (P - P).terms == {}


def test_deriv_requires_covering_certificate():
    sp = sparse_series(3, Q3, R1)
    f, cert = sp.series, nonintegral_certificate(sp, 2, 3)
    with pytest.raises(MissingCertificate):
        phi(PolyInTF.F(Q3, 3), f, cert)     # deg_F exceeds n_max
    with pytest.raises(MissingCertificate):
        phi(PolyInTF.T(Q3, 9), f, cert)     # deg_T exceeds d_max
    other = sparse_series(2, Q3, R1)
    with pytest.raises(MissingCertificate):
        phi(PolyInTF.F(Q3), other.series, cert)
    with pytest.raises(MissingCertificate):
        phi(PolyInTF.F(Q3), f, None)


def test_unbounded_table_test_radius():
    # r06 lies inside |k^x|^Q: k<T/r> is strictly affinoid there, and every
    # such map is bounded, so the table refuses the radius
    with pytest.raises(PreconditionFailed, match="not declared outside"):
        unboundedness_table(4, Q3, R06, Fraction(10) ** 6)


def test_unbounded_table_default_radius():
    cert = unboundedness_table(6, Q3, R1, Fraction(10) ** 30)
    rows = cert.witness["rows"]
    assert [r["tail_index"] for r in rows] == [4, 11, 37, 153, 771]
    for n, row in enumerate(rows, start=1):
        assert row["ratio"] == {"e0": "0",
                                "radius": [str(-sparse_indices(n + 1)[n])]}
    assert rows[4]["exceeds_bound"]
    assert cert.verdict == "UNBOUNDED"


def _ref_pbasis_generators(spec):
    """Deterministic p-basis generator list: t, u1..uN, then squarefree
    products in graded lex order."""
    base = [("t", (1,) + (0,) * spec.nvars)]
    for i in range(spec.nvars):
        exp = [0] * (spec.nvars + 1)
        exp[i + 1] = 1
        base.append((f"u{i + 1}", tuple(exp)))
    singles = list(base)
    out = list(base)
    for size in range(2, spec.nvars + 2):
        for combo in combinations(range(len(singles)), size):
            name = "*".join(singles[i][0] for i in combo)
            exp = tuple(sum(x) for x in zip(*(singles[i][1] for i in combo)))
            out.append((name, exp))
    return out


@pytest.mark.parametrize("nvars", range(9))
def test_lazy_pbasis_generators_match_list(nvars):
    spec = FieldSpec(RATFUN_LAURENT, 2, nvars=nvars, precision_cap=64)
    want = _ref_pbasis_generators(spec)
    assert len(want) == 2 ** (nvars + 1) - 1
    for m in (1, nvars + 1, nvars + 2, len(want) // 2, len(want)):
        assert list(islice(pbasis_generators(spec), m)) == want[:m]
    assert list(pbasis_generators(spec)) == want


def test_pbasis_series_at_many_variables():
    spec = FieldSpec(RATFUN_LAURENT, 2, nvars=64, precision_cap=64)
    f = pbasis_series(spec, 67, R1)
    coeffs = [t["coeff"] for t in f.to_json()["terms"]]
    assert coeffs[:3] == ["t", "u1", "u2"]
    assert coeffs[64:] == ["u64", "u1*t", "u2*t"]
    with pytest.raises(PreconditionFailed, match="only 7 p-basis"):
        pbasis_series(FieldSpec(RATFUN_LAURENT, 2, nvars=2), 8, R1)


def test_pbasis_series():
    f = pbasis_series(RF2, 4, R1)
    assert f.to_json()["terms"] == [
        {"exp": [0], "coeff": "t"}, {"exp": [1], "coeff": "u1"},
        {"exp": [2], "coeff": "u2"}, {"exp": [3], "coeff": "u3"}]
    single = pbasis_series(RF2, 1, R1)
    assert single.to_json()["terms"] == [{"exp": [0], "coeff": "t"}]
    # products extend the generator list beyond N + 1
    f6 = pbasis_series(RF2, 6, R1)
    assert f6.to_json()["terms"][4]["coeff"] == "u1*t"
    with pytest.raises(PreconditionFailed):
        pbasis_series(RF2, 20, R1)
    ident = LogNorm.identity(1)
    from nonarch import Cmp, ln_compare
    for _, c in f.sorted_terms():
        assert ln_compare(c.norm_ln(1), ident, (R1,)) is not Cmp.GT


def test_p_independence_acceptance():
    f = pbasis_series(RF2, 4, R1)
    cert = p_independence_certificate(f, 4, 2)
    assert cert.verdict == "P_INDEPENDENT"
    assert len(cert.witness["obstructions"]) == 4
    for obs in cert.witness["obstructions"]:
        assert obs["span_parity_ok"]


def test_p_independence_controls():
    u1sq = TateSeries.monomial(RF2, (R1,), 2, Scalar.uvar(RF2, 0).pow_int(2))
    c = p_independence_certificate(u1sq, 4, 2)
    assert c.verdict == "RELATION_FOUND"
    rel = c.witness["relation"][0]
    assert rel["pth_power_monomial"] == {"T": 1, "exps": [0, 1, 0, 0]}
    fT = TateSeries.monomial(RF2, (R1,), 1, Scalar.one(RF2))
    c2 = p_independence_certificate(fT, 4, 2)
    assert c2.verdict == "RELATION_FOUND"
    assert c2.witness["relation"][0]["g_monomial"]["T"] == 1


def test_p_independence_mixed_dependent():
    # u1 T + u1^3 T^3 = (u1 T)(1 + u1 T)^2: genuinely dependent, found
    # only through the t-omitting span
    u1 = Scalar.uvar(RF2, 0)
    f = TateSeries.from_terms(RF2, (R1,), [((1,), u1),
                                           ((3,), u1.pow_int(3))])
    cert = p_independence_certificate(f, 4, 2)
    # u1 appears with odd exponent, so the u1-obstruction applies and the
    # series is certified independent of relations omitting u1
    assert cert.verdict == "P_INDEPENDENT"
    assert [o["lambda"] for o in cert.witness["obstructions"]] == ["u1"]


def _enumerated_certificate(f, T_deg_max, coeff_deg_max):
    """The p-independence certificate by explicit enumeration of every
    product m * m'^p inside the bounds: the reference for the
    per-coordinate check in ``p_independence_certificate``."""
    from itertools import product
    from nonarch.derivlab import (Certificate, _coefficient_monomials,
                                  series_fingerprint)
    claim = "p-basis-independence-of-series-coefficients"
    spec = f.spec
    p, nv = spec.residue_prime, spec.nvars + 1
    monos = _coefficient_monomials(f)
    names = ["t"] + [f"u{i + 1}" for i in range(spec.nvars)]
    params = {"p": p, "num_pbasis_vars": spec.nvars,
              "T_deg_max": T_deg_max, "coeff_deg_max": coeff_deg_max,
              "series": series_fingerprint(f)}
    ranges = [range(T_deg_max + 1)] + [range(coeff_deg_max + 1)] * nv

    def patterns(skip=None):
        pats, count = set(), 0
        for g in product(*ranges):
            if skip is not None and g[1 + skip]:
                continue
            for h in product(*ranges):
                count += 1
                pats.add(tuple(a + p * b for a, b in zip(g, h)))
        return pats, count

    present = [i for i in range(nv)
               if any(exps[i] % p for _, exps, _ in monos)]
    witness = {"obstructions": [], "products_enumerated": 0}
    if present:
        for var in present:
            pats, count = patterns(var)
            witness["products_enumerated"] += count
            assert not any(pat[1 + var] % p for pat in pats)
            T, exps, resid = next(m for m in monos if m[1][var] % p)
            witness["obstructions"].append({
                "lambda": names[var], "span_products_checked": count,
                "span_parity_ok": True,
                "obstruction_monomial": {"T": T, "exps": list(exps),
                                         "coeff": resid}})
        witness["conclusion"] = (
            "every generator-omitting relation forces f0^p*g0*f = 0; "
            "polynomial rings over a field have no zero divisors")
        return Certificate("P_INDEPENDENT", "P_INDEPENDENT", params, witness,
                           claim).to_json()
    pats, count = patterns()
    witness["products_enumerated"] = count
    decomposition = []
    for T, exps, resid in monos:
        full = (T,) + exps
        if full not in pats:
            witness["missing_monomial"] = {"T": T, "exps": list(exps)}
            return Certificate("P_INDEPENDENT", "NOT_CERTIFIED", params,
                               witness, claim).to_json()
        # the smallest m-side exponent in each coordinate
        g = [min(a for a in r if (x - a) % p == 0 and (x - a) // p in r)
             for x, r in zip(full, ranges)]
        decomposition.append({
            "monomial": {"T": T, "exps": list(exps), "coeff": resid},
            "g_monomial": {"T": g[0], "exps": g[1:]},
            "pth_power_monomial": {
                "T": (full[0] - g[0]) // p,
                "exps": [(x - a) // p for x, a in zip(full[1:], g[1:])]}})
    witness["relation"] = decomposition
    return Certificate("P_INDEPENDENT", "RELATION_FOUND", params, witness,
                       claim).to_json()


def _planted_series(spec, rng):
    """1-3 monomials c * t^a u^b T^e, mostly with coefficient exponents
    divisible by p (the relation branch), some beyond small bounds."""
    p = spec.residue_prime
    terms = {}
    for _ in range(rng.randint(1, 3)):
        c = Scalar.from_int(spec, rng.randint(1, p - 1))
        s = p if rng.random() < 0.7 else 1
        c = c * Scalar.t_power(spec, s * rng.randint(0, 3))
        for i in range(spec.nvars):
            c = c * Scalar.uvar(spec, i).pow_int(s * rng.randint(0, 3))
        e = rng.randint(0, 9)
        terms[e] = terms[e] + c if e in terms else c
    return TateSeries.from_terms(spec, (R1,), terms.items())


def test_p_independence_matches_product_enumeration():
    rng = random.Random(5)
    branches = set()
    for p in (2, 3):
        for nvars in range(3):
            spec = FieldSpec(RATFUN_LAURENT, p, nvars=nvars,
                             precision_cap=64)
            inputs = [pbasis_series(spec, m, R1)
                      for m in range(1, min(3, nvars + 1) + 1)]
            inputs += [_planted_series(spec, rng) for _ in range(6)]
            for f in inputs:
                if not f.support:
                    continue
                for tdeg in range(4):
                    for cdeg in range(3):
                        cert = p_independence_certificate(f, tdeg, cdeg)
                        assert cert.to_json() == \
                            _enumerated_certificate(f, tdeg, cdeg)
                        branches.add(cert.verdict)
    assert branches == {"P_INDEPENDENT", "RELATION_FOUND", "NOT_CERTIFIED"}


def test_p_independence_beyond_the_old_enumeration():
    # 6480^2 / 6 products per generator: the enumeration refused this span
    cert = p_independence_certificate(pbasis_series(RF2, 4, R1), 4, 5)
    assert cert.verdict == "P_INDEPENDENT"
    m_side = 5 * 6 ** 4
    obs = cert.witness["obstructions"]
    assert [o["span_products_checked"] for o in obs] == \
        [m_side // 6 * m_side] * 4
    assert cert.witness["products_enumerated"] == 4 * m_side // 6 * m_side


@pytest.mark.parametrize("tdeg,cdeg", [(-1, 2), (4, -1)])
def test_p_independence_rejects_negative_bounds(tdeg, cdeg):
    with pytest.raises(ValueError):
        p_independence_certificate(pbasis_series(RF2, 4, R1), tdeg,
                                   cdeg)
