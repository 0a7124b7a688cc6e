"""The word-level block builders, kept as the oracle for ``Block``.

Before the blocks read their intervals off the cross table by property Z,
``Block.lower_indices(j)`` tested every i <= j with the Bruhat order of W
on the elements' words (for twisted involutions, on their x-components).
Before the twisted block recorded its moves during the search, its cross
table was filled by a second pass of word arithmetic through ``kappa``.
"""

from ivhecke.twisted import kappa


def lower_by_words(block, j):
    """Indices of the elements <= elements[j] by the word-level Bruhat order, ascending."""
    leq, elements = block.system.bruhat_leq, block.elements
    # elements are sorted by length, so i > j cannot be <= j
    return tuple(i for i in range(j + 1) if leq(elements[i], elements[j]))


def cross_by_kappa(block):
    """cross[s][i] = (j, commutes, up), recomputed word by word for a twisted block."""
    system, theta = block.system, block.theta
    cross = []
    for s in range(system.rank):
        row = []
        for x in block.elements:
            y = kappa(system, theta, s, x)
            commutes = system.left_mult(s, x) == system.right_mult(x, theta[s])
            row.append((block.index[y], commutes, len(y) > len(x)))
        cross.append(row)
    return cross
