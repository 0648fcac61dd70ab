"""The elimination kernel against sympy and against its own contract."""

import random
from fractions import Fraction

import pytest

from nonarch.linalg import CERT_PRIME, nullspace, sparse_rank_mod_p

# |entries| < 10 and at most 8 columns keep every minor below the
# Hadamard bound (9 * sqrt(8))^8 < CERT_PRIME, so rank mod CERT_PRIME is
# the rational rank
SEEDS = range(40)
SMALL_PRIMES = (2, 3, 5)


def random_rows(rng):
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 8)
    density = rng.choice((0.2, 0.5, 0.9))
    rows = []
    for _ in range(nrows):
        row = {c: rng.randint(-9, 9) for c in range(ncols)
               if rng.random() < density}
        rows.append({c: v for c, v in row.items() if v})
    if rng.random() < 0.3 and ncols > 1:
        # force a dependency: the last column repeats the first
        for row in rows:
            row.pop(ncols - 1, None)
            if 0 in row:
                row[ncols - 1] = row[0]
    return rows, ncols


def dense(rows, ncols, p=None):
    return [[row.get(c, 0) % p if p else row.get(c, 0) for c in range(ncols)]
            for row in rows]


def check_contract(rows, ncols, basis, p):
    """Oracle-free: each vector kills every row and is 1 at its own
    (last nonzero) column; the basis vectors have distinct own columns."""
    owns = []
    for vec in basis:
        own = max(vec)
        owns.append(own)
        assert vec[own] == 1
        assert all(v != 0 for v in vec.values())
        for row in rows:
            s = sum(row.get(c, 0) * v for c, v in vec.items())
            assert (s % p if p else s) == 0
    assert owns == sorted(set(owns))


@pytest.mark.parametrize("seed", SEEDS)
def test_rational_against_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rows, ncols = random_rows(random.Random(seed))
    basis = nullspace(rows, ncols)
    check_contract(rows, ncols, basis, None)
    M = sympy.Matrix(dense(rows, ncols))
    rank = M.rank()
    assert len(basis) == ncols - rank
    want = [[Fraction(int(x.p), int(x.q)) for x in v] for v in M.nullspace()]
    got = [[Fraction(vec.get(c, 0)) for c in range(ncols)] for vec in basis]
    assert got == want
    assert sparse_rank_mod_p(rows, ncols) == rank


@pytest.mark.parametrize("p", SMALL_PRIMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_prime_field_against_sympy(seed, p):
    pytest.importorskip("sympy")
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix
    rows, ncols = random_rows(random.Random(1000 * p + seed))
    basis = nullspace(rows, ncols, p)
    check_contract(rows, ncols, basis, p)
    K = GF(p)
    M = DomainMatrix([[K(x) for x in r] for r in dense(rows, ncols, p)],
                     (len(rows), ncols), K)
    rank = M.rank()
    assert sparse_rank_mod_p(rows, ncols, p) == rank
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
        rows, ncols = random_rows(random.Random(seed))
        assert sparse_rank_mod_p(rows, ncols) == \
            ncols - len(nullspace(rows, ncols))


def test_known_systems():
    # x0 + 2 x1 = 0 and x2 free of any row
    assert nullspace([{0: 1, 1: 2}], 3) == [{0: -2, 1: 1}, {2: 1}]
    assert nullspace([{0: 1, 1: 2}], 3, 2) == [{1: 1}, {2: 1}]
    assert nullspace([{0: 2, 1: 1}, {1: 3}], 2) == []
    assert nullspace([], 2) == [{0: 1}, {1: 1}]
    assert nullspace([{0: 3, 1: 1}], 2) == [{0: Fraction(-1, 3), 1: 1}]
    assert sparse_rank_mod_p([{0: 1, 1: 2}, {1: 3}], 2) == 2
    assert sparse_rank_mod_p([{0: 3}, {0: 6}], 1, 3) == 0
    assert sparse_rank_mod_p([{0: CERT_PRIME}], 1) == 0
