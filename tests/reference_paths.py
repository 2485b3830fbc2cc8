"""Reference versions of the Hom system and of cocharacter filtrations.

These are the plain constructions the library's weight-structured paths
replace: the Hom system assembled over every entry of f with one row per
constraint equation, and a cocharacter filtration spanned from unit vectors
and normalized by make_filtered.  They live only here, so that tests can
compare the library against them on many inputs.
"""

from __future__ import annotations

from fractions import Fraction

from multifilt.filtration import FilteredSpace, make_filtered
from multifilt.gl2 import RepData
from multifilt.homspaces import FiltObject
from multifilt.linalg import Mat, Subspace, kernel, rank
from multifilt.varieties import Cocharacter, pairing


def full_hom_system(a: FiltObject, b: FiltObject) -> Mat:
    """Linear system on vec(f), f a (dim_b x dim_a) matrix stored row-major."""
    da, db = a.rep.dim, b.rep.dim
    nvars = da * db
    rows: list[list[Fraction]] = []

    def var(r: int, c: int) -> int:
        return r * da + c

    for ka, kb in zip(a.h_action.intertwiner_constraints, b.h_action.intertwiner_constraints):
        # f ka = kb f, one equation per output entry (i, j)
        for i in range(db):
            for j in range(da):
                row = [Fraction(0)] * nvars
                for c in range(da):
                    row[var(i, c)] += ka.at(c, j)
                for r in range(db):
                    row[var(r, j)] -= kb.at(i, r)
                rows.append(row)

    for fa, fb in zip(a.filtrations, b.filtrations):
        for p in fa.jumps():
            ann = fb.at(p).annihilator_matrix()
            if ann.rows == 0:
                continue
            for v in fa.at(p).basis:
                # annihilator rows of the target step kill f v
                for u in range(ann.rows):
                    row = [Fraction(0)] * nvars
                    for r in range(db):
                        urow = ann.at(u, r)
                        if urow == 0:
                            continue
                        for c in range(da):
                            if v[c] != 0:
                                row[var(r, c)] += urow * v[c]
                    rows.append(row)

    return Mat.from_rows(rows, nvars)


def reference_hom_dim(a: FiltObject, b: FiltObject) -> int:
    if a.rep.dim == 0 and b.rep.dim == 0:
        return 1
    if a.rep.dim == 0 or b.rep.dim == 0:
        return 0
    return a.rep.dim * b.rep.dim - rank(full_hom_system(a, b))


def reference_hom_basis(a: FiltObject, b: FiltObject) -> list[Mat]:
    if a.rep.dim == 0 or b.rep.dim == 0:
        return []
    return [Mat(b.rep.dim, a.rep.dim, tuple(v)) for v in kernel(full_hom_system(a, b)).basis]


def reference_cocharacter_filtration(rep: RepData, mu: Cocharacter) -> FilteredSpace:
    """F(i) = span of the weight vectors with -<mu, weight> >= i, by elimination."""
    values = [-pairing(mu, chi) for chi in rep.weights]
    steps = {}
    for v in sorted(set(values)):
        rows = [[1 if k == b else 0 for k in range(rep.dim)] for b in range(rep.dim) if values[b] >= v]
        steps[v] = Subspace.span(rep.dim, rows)
    return make_filtered(rep.dim, steps)
