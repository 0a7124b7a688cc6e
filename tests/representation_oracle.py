"""The representation check testing every relation on every basis vector.

``classify.check_representation`` reads the quadratic relation of a
generator that pairs the block off the structure's 2x2 matrices
(``ivmodules.quadratic_failures``), and tests the braid relation of s and
t once per <s, t>-orbit shape and position in it, reading each basis
vector's verdict off its orbit (``Block.rank2_positions``).  This is the
check as it ran before, with op_s^2 = u op_s + 1 and both braid words
applied to each basis vector.  Both must return the same witness, or None.
It also keeps the scan of a generator's cross row that
``quadratic_failures`` made on every call, before it read each case's
first index off the block (``Block.first_case_indices``).
"""

from typing import Optional

from ivhecke.ivmodules import StructureMatrix, act_gen, act_word, vec_axpy
from ivhecke.laurent import ONE


def check_representation_per_element(
    gamma: StructureMatrix, block, verdicts: Optional[dict] = None
) -> Optional[dict]:
    """First witness of a failed quadratic or braid relation, or None.

    verdicts, the memo of ``classify.check_representation``, is ignored.
    """
    system = block.system
    u = gamma.parameter_diff
    n = len(block.elements)
    for s in range(system.rank):
        for i in range(n):
            e = {i: ONE}
            once = act_gen(gamma, block, s, e)
            twice = act_gen(gamma, block, s, once)
            vec_axpy(e, u, once)
            if twice != e:
                return {
                    "relation": "quadratic",
                    "s": s,
                    "element": list(block.elements[i]),
                    "theta": list(block.theta),
                }
    for s in range(system.rank):
        for t in range(s + 1, system.rank):
            m = system.bond(s, t)
            if m == 0:
                continue  # no braid relation at an infinite bond
            st_word = tuple(s if k % 2 == 0 else t for k in range(m))
            ts_word = tuple(t if k % 2 == 0 else s for k in range(m))
            for i in range(n):
                e = {i: ONE}
                if act_word(gamma, block, st_word, e) != act_word(gamma, block, ts_word, e):
                    return {
                        "relation": "braid",
                        "s": s,
                        "t": t,
                        "element": list(block.elements[i]),
                        "theta": list(block.theta),
                    }
    return None


def quadratic_failures_by_scan(bad, block) -> list[Optional[int]]:
    """For each generator s, the first k whose case (commutes, up) under s is in ``bad``, or None."""
    return [
        next((k for k, (_, commutes, up) in enumerate(row) if (commutes, up) in bad), None) for row in block.cross
    ]
