"""Exact linear algebra for the certificate generators: one elimination.

``_eliminate`` takes the columns of a sparse system in order and reduces
each by its leading entry (its highest row), like polynomial division by
the leading term, over Q (``p=None``, Fractions) or F_p.  A column that
keeps a new leading row is independent; one that vanishes is dependent,
and the tracked combination that cancels it is a nullspace vector with 1
at its own column and 0 at every later one, i.e. exactly the vector the
reduced row echelon form gives for that free column.

Reducing modulo a big prime gives a sound full-rank certificate for
integer matrices: a nonzero r x r minor mod P is nonzero over Q, so full
column rank mod P implies full column rank over Q (the converse reduction
never claims anything).
"""

from __future__ import annotations

from fractions import Fraction

CERT_PRIME = (1 << 61) - 1  # Mersenne prime, comfortably above any entry


def _axpy(vec, c, other, p):
    """vec -= c * other, in place, dropping zeros."""
    for k, v in other.items():
        nv = vec.get(k, 0) - c * v
        if p:
            nv %= p
        if nv:
            vec[k] = nv
        else:
            vec.pop(k, None)


def _scaled(vec, c, p):
    return {k: v * c % p if p else v * c for k, v in vec.items()}


def _eliminate(columns, p):
    """(rank, [combination of each dependent column], in column order)."""
    pivots = {}   # leading row -> (reduced column, its combination)
    dependent = []
    for j, col in enumerate(columns):
        vec = {r: v % p if p else v for r, v in col.items()}
        vec = {r: v for r, v in vec.items() if v}
        combo = {j: 1}
        while vec:
            lead = max(vec)
            if lead not in pivots:
                inv = pow(vec[lead], -1, p) if p else Fraction(1, vec[lead])
                pivots[lead] = (_scaled(vec, inv, p), _scaled(combo, inv, p))
                break
            pvec, pcombo = pivots[lead]
            c = vec[lead]
            _axpy(vec, c, pvec, p)
            _axpy(combo, c, pcombo, p)
        else:
            dependent.append(combo)
    return len(pivots), dependent


def _columns(rows, ncols):
    cols = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in row.items():
            cols[c][r] = v
    return cols


def sparse_rank_mod_p(rows, ncols, p=CERT_PRIME) -> int:
    """Rank mod p of a sparse integer matrix given as rows {col: int}."""
    return _eliminate(_columns(rows, ncols), p)[0]


def nullspace(rows, ncols, p=None):
    """Basis of the solutions of rows . x = 0 over Q (p None) or F_p.

    rows are sparse {col: value}; the basis has one sparse vector
    {col: value} per dependent column, in column order."""
    return _eliminate(_columns(rows, ncols), p)[1]
