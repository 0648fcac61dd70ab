"""Truncated Tate and Laurent series with certified tail bounds.

A ``TateSeries`` is a finitely supported map from exponent multi-indices to
nonzero scalars, together with a ``LogNorm`` bound dominating every omitted
term.  Exact (polynomial) elements carry the ZERO tail; arithmetic
propagates tails ultrametrically, and pruning at the support cap folds the
dropped mass into the tail so that every norm claim stays honest.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul

from .errors import (IncompatibleContext, PrecisionExhausted,
                     PreconditionFailed, SupportCapExceeded)
from .coeffs import power
from .fields import Scalar, _pmin, padic_support_pow, scalar_from_literal
from .lognorm import (Cmp, LogNorm, ln_compare, ln_max, ln_mul, ln_pow,
                      ln_sorted)

POWER = "power"
LAURENT = "laurent"

SUPPORT_CAP = 4096


class TateSeries:
    __slots__ = ("spec", "kind", "radii", "support", "tail")

    def __init__(self, spec, kind, radii, support, tail=None):
        if kind not in (POWER, LAURENT):
            raise ValueError(f"unknown series kind {kind!r}")
        self.spec = spec
        self.kind = kind
        self.radii = tuple(radii)
        n = len(self.radii)
        cleaned = {}
        for e, c in support.items():
            e = tuple(int(x) for x in e)
            if len(e) != n:
                raise ValueError("exponent arity mismatch")
            if kind == POWER and any(x < 0 for x in e):
                raise ValueError("power series admit only exponents >= 0")
            if not c.is_ring_zero():
                cleaned[e] = c
        self.support = cleaned
        self.tail = LogNorm.zero(n) if tail is None else tail
        if self.tail.arity != n:
            raise ValueError("tail norm arity mismatch")

    @classmethod
    def _make(cls, spec, kind, radii, support, tail):
        """Trusted constructor for results built from validated operands:
        `radii` is a tuple, every key of `support` an int tuple of its
        arity (nonnegative for power series), no coefficient is zero, and
        `tail` is a LogNorm of the same arity."""
        self = object.__new__(cls)
        self.spec = spec
        self.kind = kind
        self.radii = radii
        self.support = support
        self.tail = tail
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, spec, radii, kind=POWER):
        return cls(spec, kind, radii, {})

    @classmethod
    def one(cls, spec, radii, kind=POWER):
        return cls.constant(spec, radii, Scalar.one(spec), kind)

    @classmethod
    def constant(cls, spec, radii, coeff: Scalar, kind=POWER):
        n = len(radii)
        return cls(spec, kind, radii, {(0,) * n: coeff})

    @classmethod
    def monomial(cls, spec, radii, exp, coeff: Scalar, kind=POWER):
        if isinstance(exp, int):
            exp = (exp,)
        return cls(spec, kind, radii, {tuple(exp): coeff})

    @classmethod
    def from_terms(cls, spec, radii, terms, kind=POWER, tail=None):
        """terms: iterable of (exp, coeff) with coeff a Scalar or literal."""
        support = {}
        for e, c in terms:
            if isinstance(e, int):
                e = (e,)
            if not isinstance(c, Scalar):
                c = scalar_from_literal(spec, str(c))
            if not c.is_ring_zero():
                support[tuple(e)] = c
        return cls(spec, kind, radii, support, tail)

    # -- basics -----------------------------------------------------------

    @property
    def nvars(self):
        return len(self.radii)

    def is_exact(self) -> bool:
        return self.tail.is_zero

    def is_ring_zero(self) -> bool:
        return not self.support and self.tail.is_zero

    def radius_ctx(self):
        return self.radii

    def _check(self, other):
        if not isinstance(other, TateSeries):
            raise IncompatibleContext("expected a series operand")
        if (other.spec is self.spec and other.kind == self.kind
                and other.radii == self.radii):
            return
        if (self.spec != other.spec or self.kind != other.kind
                or tuple(d.gen_id for d in self.radii)
                != tuple(d.gen_id for d in other.radii)):
            raise IncompatibleContext(
                "series from different rings cannot be combined")

    def sorted_terms(self):
        return sorted(self.support.items(), key=lambda kv: kv[0])

    def term_norm(self, exp) -> LogNorm:
        """Norm of a single stored term: |a_e| * r^e."""
        return LogNorm._make(self.support[exp].valuation(), exp)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        self._check(other)
        out = dict(self.support)
        lost = []
        for e, c in other.support.items():
            # an exponent met for the first time needs no sum
            if e in out:
                _accumulate(out, lost, e, c)
            elif not c.is_ring_zero():
                out[e] = c
        return self._finish(out, ln_max(self.tail, other.tail, self.radii),
                            lost)

    def __neg__(self):
        return TateSeries._make(self.spec, self.kind, self.radii,
                                {e: -c for e, c in self.support.items()},
                                self.tail)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # not poly_mul: Scalar sums that exhaust precision fold into the tail
        self._check(other)
        out = {}
        lost = []
        for e1, c1 in self.support.items():
            for e2, c2 in other.support.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                if e in out:
                    _accumulate(out, lost, e, c)
                elif not c.is_ring_zero():
                    out[e] = c
        tail = LogNorm.zero(self.nvars)
        if not self.tail.is_zero or not other.tail.is_zero:
            # |f g - stored product| <= max(tail_f |g|, tail_g |f|)
            tail = ln_max(ln_mul(self.tail, other._term_max(other.tail)),
                          ln_mul(other.tail, self._term_max(self.tail)),
                          self.radii)
        return self._finish(out, tail, lost)

    def _finish(self, out, tail, lost):
        """The sum or product with support `out`: the bounds of the `lost`
        terms are folded into `tail`, and a support above SUPPORT_CAP is
        pruned."""
        for b in lost:
            tail = ln_max(tail, b, self.radii)
        result = TateSeries._make(self.spec, self.kind, self.radii, out, tail)
        if len(out) > SUPPORT_CAP:
            result = result.pruned(SUPPORT_CAP)
        return result

    def scalar_mul(self, c: Scalar):
        if c.is_ring_zero():
            return TateSeries.zero(self.spec, self.radii, self.kind)
        tail = self.tail
        if not tail.is_zero:
            tail = ln_mul(tail, c.norm_ln(self.nvars))
        return TateSeries(self.spec, self.kind, self.radii,
                          {e: v * c for e, v in self.support.items()}, tail)

    def pow_int(self, k: int):
        if k < 0:
            # the square-and-multiply loops below never end on k < 0
            raise ValueError(f"series power {k} is negative")
        if self.tail.is_zero:
            support = padic_support_pow(self.spec, self.support, k,
                                        self.nvars, SUPPORT_CAP)
            if support is not None:
                return TateSeries._make(self.spec, self.kind, self.radii,
                                        support, self.tail)
        return power(self, k, mul,
                     TateSeries.one(self.spec, self.radii, self.kind))

    def ring_one(self):
        return TateSeries.one(self.spec, self.radii, self.kind)

    def equals(self, other) -> bool:
        self._check(other)
        if self.tail != other.tail:
            return False
        if set(self.support) != set(other.support):
            return False
        return all(c.equals(other.support[e])
                   for e, c in self.support.items())

    # -- norms -------------------------------------------------------------

    def _term_max(self, start: LogNorm) -> LogNorm:
        """max(start, every stored term norm), terms in exponent order;
        with start = tail it is an upper bound for |f|."""
        mx = start
        for e in sorted(self.support):
            mx = ln_max(mx, self.term_norm(e), self.radii)
        return mx

    def gauss_norm(self):
        """(max over stored terms of |a_e| r^e, exactness flag).

        The flag is True when the stored maximum strictly dominates the
        tail bound, hence equals the Gauss norm of any completion.
        """
        mx = self._term_max(LogNorm.zero(self.nvars))
        if self.tail.is_zero:
            return mx, True
        exact = (not mx.is_zero
                 and ln_compare(mx, self.tail, self.radii) is Cmp.GT)
        return mx, exact

    def norm_ln(self) -> LogNorm:
        n, exact = self.gauss_norm()
        if not exact:
            raise PreconditionFailed(
                "norm of an inexact truncation is only bounded, not known")
        return n

    # -- truncation ---------------------------------------------------------

    def truncate(self, degree_bound):
        """Split into (head of total degree <= bound, exact tail series)."""
        if self.kind != POWER:
            raise PreconditionFailed("truncate applies to power series")
        head, rest = {}, {}
        for e, c in self.support.items():
            (head if sum(e) <= degree_bound else rest)[e] = c
        head_s = TateSeries(self.spec, POWER, self.radii, head)
        tail_s = TateSeries(self.spec, POWER, self.radii, rest, self.tail)
        return head_s, tail_s

    def pruned(self, cap: int):
        """Keep the `cap` largest-norm terms; fold the rest into the tail.

        Terms of equal norm are dropped in exponent order.  The new tail is
        the largest of the old tail and the dropped norms; when two of
        them tie, either is that maximum, so no tie can fail the pruning.
        """
        if len(self.support) <= cap:
            return self
        exps = sorted(self.support)
        norms = [self.term_norm(e) for e in exps]
        # smallest norms first; ties keep the exponent order
        order = ln_sorted(norms, self.radii)
        drop = len(exps) - cap
        support = dict(self.support)
        for i in order[:drop]:
            del support[exps[i]]
        top = [norms[order[drop - 1]], self.tail]
        tail = top[ln_sorted(top, self.radii)[-1]]
        return TateSeries._make(self.spec, self.kind, self.radii, support,
                                tail)

    # -- calculus helpers ----------------------------------------------------

    def formal_derivative(self, var: int = 0):
        out = {}
        spec = self.spec
        for e, c in self.support.items():
            k = e[var]
            if k == 0:
                continue
            scaled = c * Scalar.from_int(spec, k)
            if scaled.is_ring_zero():
                continue
            ee = list(e)
            ee[var] = k - 1
            out[tuple(ee)] = scaled
        if not self.tail.is_zero:
            raise PreconditionFailed(
                "formal derivative requires an exact series")
        return TateSeries(self.spec, self.kind, self.radii, out)

    # -- serialisation ---------------------------------------------------------

    def to_json(self):
        return {
            "kind": self.kind,
            "radius": [d.gen_id for d in self.radii],
            "terms": [{"exp": list(e), "coeff": c.to_literal()}
                      for e, c in self.sorted_terms()],
            "tail": self.tail.to_json(),
        }

    @classmethod
    def from_json(cls, spec, radii, obj):
        check_series_json(obj)
        terms = [(tuple(t["exp"]), scalar_from_literal(spec, t["coeff"]))
                 for t in obj.get("terms", [])]
        tail = LogNorm.from_json(obj["tail"]) if "tail" in obj else None
        if tail is not None and tail.is_zero:
            tail = LogNorm.zero(len(radii))
        kind = obj.get("kind", POWER)
        declared = obj.get("radius")
        if declared and list(declared) != [d.gen_id for d in radii]:
            raise IncompatibleContext("series declared for other radii")
        return cls(spec, kind, radii,
                   {e: c for e, c in terms}, tail)

    def __repr__(self):
        terms = ", ".join(f"{e}:{c.to_literal()}"
                          for e, c in self.sorted_terms())
        return f"<series [{terms}] tail={self.tail}>"


def check_series_json(obj):
    """Raise ValueError unless obj has the shape ``from_json`` reads: an
    object with optional "radius" (a list of radius ids), "terms" (a list
    of {"exp": [int, ...], "coeff": str}) and "tail" ({"zero": true} or
    {"e0": str, "radius": [str, ...]})."""
    if not isinstance(obj, dict):
        raise ValueError("series must be a JSON object")
    terms = obj.get("terms", [])
    if not isinstance(terms, list) or not all(
            isinstance(t, dict) and isinstance(t.get("exp"), list)
            and all(type(x) is int for x in t["exp"])
            and isinstance(t.get("coeff"), str) for t in terms):
        raise ValueError('series "terms" must be a list of '
                         '{"exp": [int, ...], "coeff": str} objects')
    if not _str_list(obj.get("radius", [])):
        raise ValueError('series "radius" must be a list of radius ids')
    tail = obj.get("tail", {"zero": True})
    if not (tail == {"zero": True} or isinstance(tail, dict)
            and set(tail) == {"e0", "radius"}
            and isinstance(tail["e0"], str) and _str_list(tail["radius"])):
        raise ValueError('series "tail" must be {"zero": true} or '
                         '{"e0": str, "radius": [str, ...]}')


def _str_list(x):
    return isinstance(x, list) and all(isinstance(s, str) for s in x)


def _accumulate(out, lost, e, c):
    """Merge coefficient c at exponent e into out.

    A sum that becomes indistinguishable from zero at the working precision
    is removed from the support and its certified bound appended to `lost`,
    to be folded into the tail by the caller.
    """
    if c.is_ring_zero():
        return
    acc = out.get(e)
    if acc is None:
        out[e] = c
        return
    try:
        s = acc + c
    except PrecisionExhausted:
        known = _pmin(acc._known_abs(), c._known_abs())
        lost.append(LogNorm(known, e))
        del out[e]
        return
    if s.is_ring_zero():
        del out[e]
    else:
        out[e] = s


# ---------------------------------------------------------------------------
# Module-level operations (spec surface)


def spectral_radius_laurent(f: TateSeries):
    """Spectral radius on the Laurent algebra: the closed-form term maximum.

    Over a field coefficient ring the spectral radius coincides with the
    Gauss norm, which is what the stored-term maximum computes.
    """
    if f.kind != LAURENT:
        raise PreconditionFailed("spectral radius formula targets the "
                                 "Laurent ring")
    return f.gauss_norm()


def spectral_power_estimate(f: TateSeries, power: int) -> LogNorm:
    """Oracle sequence ||f^l||^(1/l); equals the spectral radius for every
    l over a field, by multiplicativity of the Gauss norm."""
    if power < 1:
        raise ValueError("power must be >= 1")
    if not f.is_exact():
        raise PreconditionFailed("power estimate needs an exact series")
    fl = f.pow_int(power)
    if not fl.is_exact():
        raise SupportCapExceeded(
            f"support of f^{power} exceeded the cap; the estimate would "
            "not be exact")
    n, _ = fl.gauss_norm()
    if n.is_zero:
        return n
    return ln_pow(n, Fraction(1, power))
