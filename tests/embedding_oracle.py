"""The W x W swap embedding: the paper's check that iota extends h.

The twisted involutions of W x W under the factor-swapping twist are
exactly the pairs (y, y^-1), and on that block the iota-coefficients must
equal W's Kazhdan-Lusztig coefficients.  No command reports this; the
acceptance gate runs it (criterion 10).
"""

from ivhecke.coxeter import CoxeterSystem, Word
from ivhecke.hecke import HeckeAlgebra
from ivhecke.ivmodules import TwistedModule
from ivhecke.twisted import Perm, TwistedBlock

from hecke_oracle import entry


def product_with_swap(factor: CoxeterSystem) -> tuple[CoxeterSystem, Perm]:
    """The system W x W with the factor-swapping twist."""
    n = factor.rank
    size = 2 * n
    mat = [[2] * size for _ in range(size)]
    for i in range(size):
        mat[i][i] = 1
    for a in range(n):
        for b in range(n):
            if a != b:
                mat[a][b] = factor.matrix[a][b]
                mat[n + a][n + b] = factor.matrix[a][b]
    name = f"{factor.name}x{factor.name}" if factor.name else None
    system = CoxeterSystem(mat, name=name)
    swap = tuple(list(range(n, size)) + list(range(n)))
    return system, swap


def embedding_check(factor: CoxeterSystem) -> list[dict]:
    """Check iota on the swap block of W x W against the h-table of W.

    The block is exactly {(y, y^{-1})}; under that identification the
    iota-coefficients must equal the factor's h-coefficients.
    """
    system, swap = product_with_swap(factor)
    block = TwistedBlock(system, swap)
    n = factor.rank

    def embed(y: Word) -> Word:
        return system.reduce(y + tuple(c + n for c in factor.inverse(y)))

    failures: list[dict] = []
    expected = {embed(y): y for y in factor.elements()}
    if set(expected) != set(block.elements):
        return [{"error": "block is not the graph of inversion"}]
    h = HeckeAlgebra(factor).kl_table()
    h_index = {w: i for i, w in enumerate(h.elements)}
    t = TwistedModule(block, "iota").canonical_table()
    for j, w in enumerate(block.elements):
        for i in block.lower_indices(j):
            x = block.elements[i]
            val = entry(t, i, j)
            hval = entry(h, h_index[expected[x]], h_index[expected[w]])
            if val != hval:
                failures.append(
                    {
                        "x": list(expected[x]),
                        "w": list(expected[w]),
                        "iota": val.to_json(),
                        "h": hval.to_json(),
                    }
                )
    return failures
