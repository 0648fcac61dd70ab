"""The scalar-literal reader against the one it replaced.

``_Tokenizer`` and ``_Parser`` below are the character scanner and the
recursive-descent class that ``fields.scalar_from_literal`` took over from,
kept verbatim as the oracle, but for the later bound on the size of a
p-adic power (``test_padic_powers_past_the_digit_limit_refused``).
Literals drawn from the grammar (integers past the int-to-str digit
limit, the names of each field, negative exponents, stacked unary signs,
parentheses down to depth 200) must give equal scalars with the same
literal; junk made from the same alphabet and a few malformed words must
raise the same exception class.
"""

import re
import sys
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from nonarch.fields import (FQ_LAURENT, PADIC, RATFUN_LAURENT, FieldSpec,
                            Scalar, scalar_from_literal)

Q3 = FieldSpec(PADIC, 3, precision_cap=40)
Q5 = FieldSpec(PADIC, 5, precision_cap=40)
F2T = FieldSpec(FQ_LAURENT, 2, field_size=2, precision_cap=64)
F4T = FieldSpec(FQ_LAURENT, 2, field_size=4, precision_cap=64)
RF2 = FieldSpec(RATFUN_LAURENT, 2, nvars=3, precision_cap=64)
SPECS = {"Q3": Q3, "Q5": Q5, "F2T": F2T, "F4T": F4T, "RF2": RF2}
NAMES = {"Q3": [], "Q5": [], "F2T": ["t"], "F4T": ["t", "w"],
         "RF2": ["t", "u1", "u2", "u3"]}


# -- the replaced reader ------------------------------------------------


class _Tokenizer:
    def __init__(self, s: str):
        self.src = s
        self.pos = 0

    def peek(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.src):
            return None
        return self.src[self.pos]

    def next_token(self):
        ch = self.peek()
        if ch is None:
            return None
        if ch in "+-*/^()":
            self.pos += 1
            return ch
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.src) and self.src[self.pos].isdigit():
                self.pos += 1
            digits = self.src[start:self.pos]
            try:
                return int(digits)
            except ValueError:
                if not digits.isdecimal():
                    raise
                # past the interpreter's str-to-int limit; Decimal has none
                return int(Decimal(digits))
        if ch.isalpha():
            start = self.pos
            self.pos += 1
            while (self.pos < len(self.src)
                   and self.src[self.pos].isdigit()):
                self.pos += 1
            return self.src[start:self.pos]
        raise ValueError(f"bad character {ch!r} in scalar literal")


class _Parser:
    """Tiny recursive-descent evaluator for scalar literals; parentheses
    nest at most 200 deep (each level costs four Python frames)."""

    def __init__(self, spec: FieldSpec, s: str):
        self.spec = spec
        self.depth = 0
        self.toks = []
        tz = _Tokenizer(s)
        while True:
            t = tz.next_token()
            if t is None:
                break
            self.toks.append(t)
        self.i = 0

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _take(self):
        t = self._peek()
        self.i += 1
        return t

    def parse(self) -> Scalar:
        v = self.expr()
        if self._peek() is not None:
            raise ValueError(f"trailing input at token {self._peek()!r}")
        return v

    def expr(self):
        v = self.term()
        while self._peek() in ("+", "-"):
            op = self._take()
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.factor()
        while self._peek() in ("*", "/"):
            op = self._take()
            w = self.factor()
            v = v * w if op == "*" else v / w
        return v

    def factor(self):
        neg = False
        while self._peek() in ("+", "-"):
            if self._take() == "-":
                neg = not neg
        v = self.atom()
        if self._peek() == "^":
            self._take()
            esign = 1
            if self._peek() == "-":
                self._take()
                esign = -1
            e = self._take()
            if not isinstance(e, int):
                raise ValueError("exponent must be an integer")
            # not in the replaced reader: the bound on p-adic powers
            limit = sys.get_int_max_str_digits()
            if self.spec.kind == PADIC and limit \
                    and e * v.rep_size() > limit * 10 // 3:
                raise ValueError("power past the int-to-str digit limit")
            v = v.pow_int(esign * e)
        return -v if neg else v

    def atom(self):
        t = self._take()
        if t == "(":
            self.depth += 1
            if self.depth > 200:
                raise ValueError("scalar literal nested too deeply")
            v = self.expr()
            if self._take() != ")":
                raise ValueError("unbalanced parenthesis")
            self.depth -= 1
            return v
        if isinstance(t, int):
            return Scalar.from_int(self.spec, t)
        if isinstance(t, str):
            if t == "t":
                return Scalar.t_power(self.spec, 1)
            if t == "w" and self.spec.kind == FQ_LAURENT:
                gen = self.spec.domain().generator()
                return Scalar(self.spec, val=0, unit={0: gen})
            if t.startswith("u") and t[1:].isdigit():
                return Scalar.uvar(self.spec, int(t[1:]) - 1)
        raise ValueError(f"unexpected token {t!r} in scalar literal")


# -- both readers on one input ------------------------------------------


def _read(reader, spec, s):
    """("ok", scalar) or ("raises", the exception class)."""
    try:
        return "ok", reader(spec, s)
    except Exception as exc:        # the class is what is compared
        return "raises", type(exc)


def _assert_same(spec, s):
    old = _read(lambda spec, s: _Parser(spec, s).parse(), spec, s)
    new = _read(scalar_from_literal, spec, s)
    if old[0] == new[0] == "ok":
        assert new[1].equals(old[1]), s
        assert new[1].to_literal() == old[1].to_literal(), s
    else:
        assert new == old, s
    return new


# past the interpreter's 4,300-digit str-to-int limit
_HUGE = ["7" * 4400, "1" + "0" * 4300, "3" * 5000]


def _literals(names):
    """Literals of the grammar over integers (some past the digit limit)
    and ``names``: sums, products, quotients, powers with exponents in
    [-3, 3], stacked signs with spaces, and parentheses."""
    atom = st.one_of(st.integers(0, 10 ** 6).map(str),
                     st.sampled_from(_HUGE),
                     *([st.sampled_from(names)] if names else []))
    signs = st.text("+- ", max_size=4)

    def extend(inner):
        paren = inner.map(lambda s: f"({s})")
        # a power of an atom only, so that no tower of powers can grow
        power = st.tuples(atom, st.sampled_from(["^", " ^ "]),
                          st.integers(-3, 3)).map(
            lambda a: f"{a[0]}{a[1]}{a[2]}")
        signed = st.tuples(signs, st.one_of(atom, paren, power)).map("".join)
        binary = st.tuples(inner, st.sampled_from("+-*/"), signed).map(
            lambda a: " ".join(a))
        return st.one_of(paren, power, signed, binary)

    return st.recursive(atom, extend, max_leaves=6)


@pytest.mark.parametrize("name", SPECS)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_grammar_literals_read_alike(name, data):
    spec, names = SPECS[name], NAMES[name]
    lit = data.draw(_literals(names))
    _assert_same(spec, lit)
    depth = data.draw(st.integers(0, 200))
    _assert_same(spec, "(" * depth + lit + ")" * depth)


@pytest.mark.parametrize("name", SPECS)
def test_signs_apply_to_the_whole_power(name):
    # -3^2 is -(3^2), and --3^2 is 3^2
    spec = SPECS[name]
    assert _assert_same(spec, "-3^2")[1].equals(Scalar.from_int(spec, -9))
    assert _assert_same(spec, "- -3^2")[1].equals(Scalar.from_int(spec, 9))
    assert _assert_same(spec, "3^-1*3")[1].equals(Scalar.one(spec))


def test_nesting_limit():
    for depth in (199, 200, 201, 202, 260):
        _assert_same(Q3, "(" * depth + "1" + ")" * depth)
    one = _assert_same(Q3, "(" * 200 + "1" + ")" * 200)
    assert one[0] == "ok"
    assert _assert_same(Q3, "(" * 201 + "1" + ")" * 201) \
        == ("raises", ValueError)


_JUNK = ["0", "1", "2", "3", "t", "w", "u1", "u2", "u3", "u4", "+", "-",
         "*", "/", "^", "(", ")", " ", "²", "_", "3t", "1e5", "^^"]


@pytest.mark.parametrize("name", SPECS)
@settings(max_examples=300, deadline=None)
@given(junk=st.lists(st.sampled_from(_JUNK), max_size=12).map("".join)
       # one-digit exponents only: "2^3333333333" would run both readers
       # out of time and memory, and says nothing about the grammar
       .filter(lambda s: not re.search(r"\^ *-? *[0-9²]{2}", s)))
@example(junk="")
@example(junk="(1")
@example(junk="1)")
@example(junk="((1)")
@example(junk="3t")
@example(junk="1e5")
@example(junk="1^x")
@example(junk="²²")
@example(junk="3_000")
@example(junk="t^^2")
@example(junk="1/0 3t")
@example(junk="u1²")
def test_junk_raises_alike(name, junk):
    _assert_same(SPECS[name], junk)


@pytest.mark.parametrize("lit", ["(1", "3t", "1^x", "²²", "3_000", "1e5",
                                 "", "t^^2", "(" * 260 + "1" + ")" * 260])
def test_malformed_literals_raise_value_error(lit):
    with pytest.raises(ValueError):
        scalar_from_literal(F2T, lit)


def test_padic_powers_past_the_digit_limit_refused():
    # |e| times the base's bit size against the int-to-str digit limit,
    # at 10/3 bits a digit; 3 takes 3 bits (2 for 3, 1 for 1)
    limit = sys.get_int_max_str_digits()
    top = limit * 10 // 3 // 3
    three = Scalar.from_int(Q3, 3)
    for e in (top, -top, 700):
        assert scalar_from_literal(Q3, f"3^{e}").equals(three.pow_int(e))
    for lit in (f"3^{top + 1}", f"3^-{top + 1}", "2^1000000",
                "3^100000000", "7/9^99999999999"):
        with pytest.raises(ValueError, match="digit int limit"):
            scalar_from_literal(Q3, lit)
    # Laurent powers are not bounded this way
    assert scalar_from_literal(F2T, "t^100000000").valuation() == 10 ** 8
