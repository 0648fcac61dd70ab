"""The elimination kernel against sympy and against its own contract."""

import random
from fractions import Fraction

import pytest

from nonarch import PreconditionFailed, linalg
from nonarch.linalg import CERT_PRIME, nullspace, sparse_rank_mod_p

# |entries| < 10 and at most 8 columns keep every minor below the
# Hadamard bound (9 * sqrt(8))^8 < CERT_PRIME, so rank mod CERT_PRIME is
# the rational rank
SEEDS = range(40)
SMALL_PRIMES = (2, 3, 5)


def random_columns(rng):
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 8)
    density = rng.choice((0.2, 0.5, 0.9))
    columns = []
    for _ in range(ncols):
        col = {r: rng.randint(-9, 9) for r in range(nrows)
               if rng.random() < density}
        columns.append({r: v for r, v in col.items() if v})
    if rng.random() < 0.3 and ncols > 1:
        # force a dependency: the last column repeats the first
        columns[-1] = dict(columns[0])
    return columns, nrows, ncols


def dense(columns, nrows, p=None):
    return [[col.get(r, 0) % p if p else col.get(r, 0) for col in columns]
            for r in range(nrows)]


def check_contract(columns, nrows, basis, p):
    """Oracle-free: each vector combines the columns to zero and is 1 at
    its own (last nonzero) column; the basis vectors have distinct own
    columns."""
    owns = []
    for vec in basis:
        own = max(vec)
        owns.append(own)
        assert vec[own] == 1
        assert all(v != 0 for v in vec.values())
        for r in range(nrows):
            s = sum(columns[c].get(r, 0) * v for c, v in vec.items())
            assert (s % p if p else s) == 0
    assert owns == sorted(set(owns))


@pytest.mark.parametrize("seed", SEEDS)
def test_rational_against_sympy(seed):
    sympy = pytest.importorskip("sympy")
    columns, nrows, ncols = random_columns(random.Random(seed))
    basis = nullspace(columns, ncols)
    check_contract(columns, nrows, basis, None)
    M = sympy.Matrix(dense(columns, nrows))
    rank = M.rank()
    assert len(basis) == ncols - rank
    want = [[Fraction(int(x.p), int(x.q)) for x in v] for v in M.nullspace()]
    got = [[Fraction(vec.get(c, 0)) for c in range(ncols)] for vec in basis]
    assert got == want
    assert sparse_rank_mod_p(columns, ncols) == rank


@pytest.mark.parametrize("p", SMALL_PRIMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_prime_field_against_sympy(seed, p):
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix
    columns, nrows, ncols = random_columns(random.Random(1000 * p + seed))
    basis = nullspace(columns, ncols, p)
    check_contract(columns, nrows, basis, p)
    K = GF(p)
    M = DomainMatrix([[K(x) for x in r] for r in dense(columns, nrows, p)],
                     (nrows, ncols), K)
    rank = M.rank()
    assert sparse_rank_mod_p(columns, ncols, p) == rank
    assert len(basis) == ncols - rank
    want = []
    if basis:
        # sympy scales each vector; make its last nonzero entry 1
        for v in M.nullspace().to_list():
            v = [int(x) % p for x in v]
            inv = pow([x for x in v if x][-1], -1, p)
            want.append([x * inv % p for x in v])
    got = [[vec.get(c, 0) for c in range(ncols)] for vec in basis]
    assert got == want


def test_rank_mod_cert_prime_is_rational_rank():
    for seed in SEEDS:
        columns, _, ncols = random_columns(random.Random(seed))
        assert sparse_rank_mod_p(columns, ncols) == \
            ncols - len(nullspace(columns, ncols))


def test_known_systems():
    # x0 + 2 x1 = 0 and x2 free of any row
    assert nullspace([{0: 1}, {0: 2}, {}], 3) == [{0: -2, 1: 1}, {2: 1}]
    assert nullspace([{0: 1}, {0: 2}, {}], 3, 2) == [{1: 1}, {2: 1}]
    assert nullspace([{0: 2}, {0: 1, 1: 3}], 2) == []
    assert nullspace([{}, {}], 2) == [{0: 1}, {1: 1}]
    assert nullspace([{0: 3}, {0: 1}], 2) == [{0: Fraction(-1, 3), 1: 1}]
    assert sparse_rank_mod_p([{0: 1}, {0: 2, 1: 3}], 2) == 2
    assert sparse_rank_mod_p([{0: 3, 1: 6}], 1, 3) == 0
    assert sparse_rank_mod_p([{0: CERT_PRIME}], 1) == 0


def test_columns_stream_once_and_pad_with_zeros():
    # a one-pass generator is read in order; columns past its end are zero
    columns = [{0: 1}, {0: 2}]
    assert nullspace(iter(columns), 3) == nullspace(columns + [{}], 3)
    assert nullspace([], 2) == nullspace([{}, {}], 2)
    assert sparse_rank_mod_p((c for c in columns), 2) == 1
    assert columns == [{0: 1}, {0: 2}]    # the inputs are not reduced


def chain(n, a, b):
    """Columns of the relation system of f = a + bT with n_max 1, d_max n:
    each column T^e reduces down a chain of e pivots, and its combination
    gains an entry per step."""
    return ([{e: a, e + 1: b} for e in range(n + 1)]
            + [{e: 1} for e in range(n + 1)])


def test_elimination_work_is_capped(monkeypatch):
    columns = chain(30, 1, 1)
    assert len(nullspace(columns, 62)) == 30
    assert sparse_rank_mod_p(columns, 62) == 32
    # 34 nonzeros a column at most, but about 2,000 entry operations
    monkeypatch.setattr(linalg, "MAX_WORK", 2000)
    with pytest.raises(PreconditionFailed, match="work cap of 2000"):
        nullspace(columns, 62)
    with pytest.raises(PreconditionFailed, match="work cap of 2000"):
        sparse_rank_mod_p(columns, 62)


def test_elimination_work_counts_words_over_q(monkeypatch):
    # the same chain with 30-digit fractions: as many operations, but
    # combinations of powers of a/b, hundreds of words each
    monkeypatch.setattr(linalg, "MAX_WORK", 10_000)
    assert len(nullspace(chain(30, 1, 1), 62)) == 30
    big = chain(30, Fraction(10**30 + 1, 10**30 - 1),
                Fraction(3**60, 2**90 + 1))
    with pytest.raises(PreconditionFailed):
        nullspace(big, 62)
    monkeypatch.setattr(linalg, "MAX_WORK", 100_000)
    assert len(nullspace(big, 62)) == 30
    # 20 equal columns: each reduces once by the first, with c = -1, and
    # writes the pivot's words, five each for 40-digit fractions
    small = [r + 2 for r in range(49)] + [1]
    big = [Fraction(10**40 + r, 10**40 - r) for r in range(49)] + [1]
    monkeypatch.setattr(linalg, "MAX_WORK", 4000)
    assert len(nullspace([dict(enumerate(small))] * 20, 20)) == 19
    with pytest.raises(PreconditionFailed):
        nullspace([dict(enumerate(big))] * 20, 20)
