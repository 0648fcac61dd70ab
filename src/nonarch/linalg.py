"""Exact linear algebra for the certificate generators: one elimination.

``_eliminate`` takes the columns of a sparse system in order, from any
iterable, so a caller can stream them from a generator and the system is
held once: each column lives until it is reduced, and only the pivots
stay.  It reduces each column by its leading entry (its highest row),
like polynomial division by the leading term, over Q (``p=None``,
Fractions) or F_p.  A column that keeps a new leading row is independent;
one that vanishes is dependent, and the tracked combination that cancels
it is a nullspace vector with 1 at its own column and 0 at every later
one, i.e. exactly the vector the reduced row echelon form gives for that
free column.  Columns and combinations are sparse {row: value} and
{column: value} dicts, reduced and scaled by ``coeffs.poly_axpy``.

Reducing modulo a big prime gives a sound full-rank certificate for
integer matrices: a nonzero r x r minor mod P is nonzero over Q, so full
column rank mod P implies full column rank over Q (the converse reduction
never claims anything).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat

from .coeffs import poly_axpy
from .errors import PreconditionFailed

CERT_PRIME = (1 << 61) - 1  # Mersenne prime, comfortably above any entry
# One elimination may read and scan this many entries and write this many
# words (fill-in and growth over Q count); derivlab checks a relation
# system's products and size against it before streaming a column.
# Measured (Python 3.11, 2-core x86-64): unbounded-demo --terms 9, a system
# of 681,250 eliminated in 324,400, takes 0.35 s at 73 MiB; at the cap,
# f = 1 + T with --nmax 1 --dmax 705 (a fill-in chain, 999,693 twice)
# takes 5 s at 41 MiB.
MAX_WORK = 1_000_000


def _words(v):
    """Size of an int or Fraction in 64-bit words, at least one."""
    return 1 + (v.numerator.bit_length() + v.denominator.bit_length()) // 64


def _eliminate(columns, ncols, p):
    """(rank, [combination of each dependent column], in column order) of
    the first ncols columns; columns past the end of ``columns`` are
    zero."""
    pivots = {}   # leading row -> (reduced column, its combination, sizes)
    dependent = []
    work = 0      # entries read and scanned, and words written
    for j, col in zip(range(ncols), chain(columns, repeat({}))):
        vec = poly_axpy({}, 1, col, p)
        combo = {j: 1}
        work += len(col)
        while vec:
            lead = max(vec)
            if lead not in pivots:
                inv = pow(vec[lead], -1, p) if p else Fraction(1, vec[lead])
                pvec = poly_axpy({}, inv, vec, p)
                pcombo = poly_axpy({}, inv, combo, p)
                entries = len(pvec) + len(pcombo)
                words = entries if p else (sum(map(_words, pvec.values()))
                                           + sum(map(_words, pcombo.values())))
                pivots[lead] = (pvec, pcombo, entries, words)
                break
            pvec, pcombo, entries, words = pivots[lead]
            c = -vec[lead]
            # a step writes c times the pivot; over Q the entries grow, so
            # count words, about those of c plus those of the pivot entry
            work += len(vec) + words + entries * (_words(c) - 1)
            if work > MAX_WORK:
                raise PreconditionFailed(
                    f"elimination exceeds the work cap of {MAX_WORK}")
            poly_axpy(vec, c, pvec, p)
            poly_axpy(combo, c, pcombo, p)
        else:
            dependent.append(combo)
    return len(pivots), dependent


def sparse_rank_mod_p(columns, ncols, p=CERT_PRIME) -> int:
    """Rank mod p of a sparse integer matrix given as columns {row: int}."""
    return _eliminate(columns, ncols, p)[0]


def nullspace(columns, ncols, p=None):
    """Basis of the solutions of M x = 0 over Q (p None) or F_p.

    The columns of M are sparse {row: value}; the basis has one sparse
    vector {column: value} per dependent column, in column order."""
    return _eliminate(columns, ncols, p)[1]
