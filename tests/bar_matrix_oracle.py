"""The quadratic-scan involution check, kept as the oracle for ``BarMatrix``.

Before ``BarMatrix.is_involution`` applied psi to each column, it summed,
for each pair i <= j of the poset, entry(i, t) * bar(entry(t, j)) over
every t in range(i, j + 1).
"""

from ivhecke.laurent import ONE, ZERO


def is_involution_by_scan(bar):
    entries = {(i, j): p for j, column in bar.columns.items() for i, p in column.items()}
    for j in range(len(bar.poset)):
        for i in bar.poset.lower[j]:
            acc = ZERO
            for t in range(i, j + 1):
                a = entries.get((i, t))
                if a:
                    b = entries.get((t, j))
                    if b:
                        acc = acc.addmul(a, b.bar())
            if acc != (ONE if i == j else ZERO):
                return False
    return True
