"""The full seed-and-peel solve that the eigenvalue fill replaced for ``h`` and ``pi``.

Every column j > 0 is reduced from the whole seed X = (H_s + v^-k) C_i at
the descent j = s |*| i that ``TwistedModule._seed`` picks: op_s applied by
``act_gen``, then v^-k C_i added by ``vec_axpy``.  The peel reads X at
every x < j, rank descending, subtracts p_x C_x over all of C_x and
divides by a1.  No entry is filled from another.  Tests compare the
module tables, values and key order, with this, and the positions where
the fill reads the seed with the nonzero p_x recorded here.
"""

from ivhecke.ivmodules import act_gen
from ivhecke.laurent import ONE, monomial, split_bar_invariant, vec_axpy


def column_index(entries):
    """{j: {i: entries[(i, j)]}}, each column in the order of ``entries``: a flat oracle dict as a table's columns."""
    columns = {}
    for (i, j), p in entries.items():
        columns.setdefault(j, {})[i] = p
    return columns


def full_seed(module, j, columns):
    """(X, a1) with X whole, at the descent ``TwistedModule._seed`` picks."""
    block, gamma = module.block, module.gamma
    best = None
    for s in range(block.system.rank):
        i, commutes, up = block.cross[s][j]
        if up:
            continue
        a1 = gamma.action_rows[commutes][True][0]
        if a1 == ONE or a1 == -ONE:
            best = (s, i, a1)
            break
        if a1 and best is None:
            best = (s, i, a1)
    if best is None:
        return {j: ONE}, ONE
    s, i, a1 = best
    vec = act_gen(gamma, block, s, columns[i])
    vec_axpy(vec, monomial(-2 if gamma.squared else -1), columns[i])
    return vec, a1


def full_peel_entries(module, peels=None):
    """{(x, j): pi_{x,j}} of the module's canonical table, in ``solve_canonical``'s key order.

    With a dict ``peels``, peels[j][x] = p_x for every nonzero p_x of column j.
    """
    block = module.block
    entries = {}
    columns = {}
    for j in range(len(block)):
        order = sorted(block.lower_indices(j)[:-1], key=lambda x: (-block.rho[x], x))
        vec, a1 = full_seed(module, j, columns)
        entries[(j, j)] = ONE
        column = {j: ONE}
        for x in order:
            f = vec.get(x)
            if not f:
                continue
            p = split_bar_invariant(f, a1)
            if p:
                if peels is not None:
                    peels.setdefault(j, {})[x] = p
                vec_axpy(vec, -p, columns[x])
                f = vec.get(x)
                if not f:
                    continue
            pi = f if a1 == ONE else -f if a1 == -ONE else f.exact_div(a1)
            column[x] = entries[(x, j)] = pi
        columns[j] = column
    return entries
