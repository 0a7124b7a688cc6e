"""The quadratic-scan bar-matrix checks, kept as the oracle for ``BarMatrix``.

Before ``BarMatrix`` indexed its columns, ``column(j)`` scanned every
entry and ``is_involution`` summed, for each pair i <= j of the poset,
entry(i, t) * bar(entry(t, j)) over every t in range(i, j + 1).
"""

from ivhecke.laurent import ONE, ZERO


def column_by_scan(bar, j):
    return {i: p for (i, jj), p in bar.entries.items() if jj == j}


def is_involution_by_scan(bar):
    for j in range(len(bar.poset)):
        for i in bar.poset.lower_indices(j):
            acc = ZERO
            for t in range(i, j + 1):
                a = bar.entries.get((i, t))
                if a:
                    b = bar.entries.get((t, j))
                    if b:
                        acc = acc.addmul(a, b.bar())
            if acc != (ONE if i == j else ZERO):
                return False
    return True
