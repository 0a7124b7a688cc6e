"""The letterwise bar recipe, kept as the oracle for the derived bar involution.

Before psi was derived from the structure matrix by the descent recursion,
each named module carried it as a recipe: letting x be the group part of
w = (x, theta) and c = v^-k - v^k,

    psi(m_w) = sign * (op_{s_1} + c) ... (op_{s_r} + c) m_{(x^{-1}, theta)}

for the reduced word s_1 ... s_r of x, with sign = (-1)^{l(x)} for pi and
iota and sign = +1 for pi_prime.  The recursion must reproduce it.
"""

from ivhecke.ivmodules import NAMED_STRUCTURES, Vector, act_gen, vec_axpy, vec_scale
from ivhecke.laurent import ONE
from ivhecke.twisted import TwistedBlock

#: label -> whether the recipe carries the sign (-1)^{l(x)}
SIGNED = {"pi": True, "pi_prime": False, "iota": True}


def recipe_bar_row(label: str, block: TwistedBlock, i: int) -> Vector:
    """psi(m_w) for w = block.elements[i], by the recipe of ``label``."""
    gamma = NAMED_STRUCTURES[label]
    x = block.elements[i]
    vec: Vector = {block.index[block.system.inverse(x)]: ONE}
    for s in reversed(x):
        acted = act_gen(gamma, block, s, vec)
        vec_axpy(acted, gamma.bar_shift, vec)
        vec = acted
    if SIGNED[label] and len(x) % 2 == 1:
        vec = vec_scale(vec, -1)
    return vec
