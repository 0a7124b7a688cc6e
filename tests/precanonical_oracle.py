"""The full pre-canonicity check, psi^2 pass included, kept as the oracle.

``TwistedModule.check_precanonical`` does not test psi^2 = id: its
docstring shows that intertwining below j already forces psi^2(m_j) = m_j.
This is the check as it ran before, with the psi^2 test at each j ahead of
the intertwining test at j, and with the unitriangularity test of every
row, which ``check_precanonical`` leaves to property Z (``Block``).  Both
must raise the same witness, or neither.
"""

from ivhecke.ivmodules import TwistedModule, precanonical_failure, vec_axpy
from ivhecke.laurent import ONE, ZERO


def check_precanonical_with_psi_squared(module: TwistedModule) -> None:
    """Raise NotPreCanonical unless psi is unitriangular, involutive and compatible."""
    block = module.block
    for j in range(1, len(block)):
        row = module.bar_row(j)
        lower = set(block.lower_indices(j))
        for k in row:
            if k not in lower:
                raise precanonical_failure(
                    block, j, "not unitriangular", offender=list(block.elements[k])
                )
        if row.get(j) != ONE:
            raise precanonical_failure(
                block, j, "diagonal not 1", diagonal=(row.get(j) or ZERO).to_json()
            )
    c = module.gamma.bar_shift
    for j in range(len(block)):
        row = module.bar_row(j)
        if module.bar(row) != {j: ONE}:
            raise precanonical_failure(block, j, "psi squared is not the identity")
        for s in range(block.system.rank):
            lhs = module.bar(module.act(s, {j: ONE}))
            rhs = module.act(s, row)
            vec_axpy(rhs, c, row)
            if lhs != rhs:
                raise precanonical_failure(block, j, "intertwining failure", s=s)
