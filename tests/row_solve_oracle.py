"""The canonical basis solved from psi's rows, kept as the oracle of every table.

Before ``invariant_suite`` checked each column against the definition
(psi(C_j) = C_j, C_j in m_j + sum v^-1 Z[v^-1] m_x), it solved every table
a second time from psi's rows with equal ranks walked in reverse order,
and ``hecke.solve_canonical`` took psi's rows (``bar_row``) and a
``reverse_ties`` flag besides its seeds.  ``solve_canonical`` here is that
row mode; the seeded mode stays in ``hecke``, and a P-kernel's row solve
in ``pkernel.kls_function``.

Writing psi(a_y) = sum_x r_{x,y} a_x, the coefficients of b_w satisfy

    pi_{x,w} - bar(pi_{x,w}) = sum_{x < y <= w} r_{x,y} bar(pi_{y,w}),

and the right-hand side determines pi_{x,w} by the antisymmetric split,
top-down.  Elements of equal rank are independent, which ``reverse_ties``
lets a test confirm.
"""

from typing import Callable, Sequence

from ivhecke.hecke import NotPreCanonical
from ivhecke.laurent import ONE, ZERO, LaurentPoly, NotAntisymmetric, split_antisymmetric


def solve_canonical(
    ranks: Sequence[int],
    lower: Callable[[int], Sequence[int]],
    bar_row: Callable[[int], dict[int, LaurentPoly]],
    reverse_ties: bool = False,
    *,
    labels: Sequence,
) -> dict[tuple[int, int], LaurentPoly]:
    """All nonzero entries pi_{x,w}, keyed (x, w), the unit diagonal included.

    The walk is rank descending, then index ascending (descending with
    ``reverse_ties``).  Raises NotPreCanonical if a row of psi is not
    unitriangular with diagonal 1, or if a defect fails the antisymmetric
    split.
    """
    n = len(ranks)
    entries: dict[tuple[int, int], LaurentPoly] = {}
    rows: dict[int, dict[int, LaurentPoly]] = {}
    key = [(n - 1 - i if reverse_ties else i) - n * r for i, r in enumerate(ranks)].__getitem__
    for j in range(n):
        interval = lower(j)
        order = sorted((i for i in interval if i != j), key=key)
        entries[(j, j)] = ONE
        row = rows[j] = bar_row(j)
        diag = row.get(j, ZERO)
        if diag != ONE:
            raise NotPreCanonical(
                f"bar matrix diagonal at {labels[j]} is {diag}, expected 1",
                {"element": labels[j], "diagonal": diag.to_json()},
            )
        members = set(interval)
        for i in row:
            if row[i] and i not in members:
                raise NotPreCanonical(
                    f"bar matrix not unitriangular: psi(a_{labels[j]}) hits {labels[i]}",
                    {"element": labels[j], "offender": labels[i]},
                )
        column_bar: dict[int, LaurentPoly] = {j: ONE}  # bar(pi_{y,w}) for each y solved so far
        for x in order:
            d = ZERO
            for y, pi_y_bar in column_bar.items():
                r = rows[y].get(x)
                if r:
                    d = d.addmul(r, pi_y_bar)
            if not d:
                continue
            try:
                mu = split_antisymmetric(d)
            except NotAntisymmetric:
                raise NotPreCanonical(
                    f"column {labels[j]}: defect at {labels[x]} is not antisymmetric: {d}",
                    {"column": labels[j], "element": labels[x], "defect": d.to_json()},
                ) from None
            if mu:
                column_bar[x] = mu.bar()
                entries[(x, j)] = mu
    return entries
