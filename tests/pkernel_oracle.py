"""The ``pkernel`` command's report computed without the module, kept as its oracle.

Before the command read its answers off the module its bar matrix comes
from, it rebuilt the bar matrix from the kernel (``bar_from_kernel``) for
the roundtrip identity, confirmed psi^2 = id by the full pass
``BarMatrix.is_involution`` and solved the KLS function from psi's rows
(``kls_function``).
``pkernel_outcome`` is that computation; ``render`` writes its report as
the command does.

The incidence algebra's product lives here too: ``convolve`` checks the
KLS function's defining equation K * gamma = q^r bar(gamma) directly,
``delta`` is its unit, and ``is_p_kernel`` asks whether psi_K is an
involution by the full pass.

Before ``kernel_from_bar`` and ``_kls_values`` read their values off the
coefficient tuples, they formed each value as a product by a monomial,
then a bar, then ``halve_exponents``; ``kernel_by_products`` and
``kls_values_by_products`` are that computation, errors included.
"""

from bisect import bisect_left

from ivhecke import cli
from ivhecke.coxeter import parse_system
from ivhecke.laurent import ONE, ZERO, LaurentPoly, monomial
from ivhecke.pkernel import (
    IncidenceFunction,
    NotParityCompatible,
    _label_json,
    bar_from_kernel,
    check_grading,
    hecke_bar_matrix,
    kernel_from_bar,
    kls_function,
    module_bar_matrix,
)
from ivhecke.twisted import parse_theta


def pkernel_outcome(system_name, basis, theta="id", grading="length"):
    """(exit code, report, KLS function or None) of ``ivhecke pkernel``.

    On a parity failure the exit code is None and the report is the
    failure's witness.
    """
    system = parse_system(system_name)
    theta = parse_theta(system, theta)
    if basis == "h":
        bar = hecke_bar_matrix(system)
    else:
        bar = module_bar_matrix(system, theta, basis, grading)
    try:
        kernel = kernel_from_bar(bar)
    except NotParityCompatible as exc:
        witness = dict(exc.witness)
        witness["check"] = "kernel_from_bar"
        witness["basis"] = basis
        witness["grading"] = grading
        return None, witness, None
    roundtrip = bar_from_kernel(kernel, bar.grading).columns == bar.columns
    involution = bar.is_involution()
    report = {
        "system": system_name,
        "basis": basis,
        "grading": grading,
        "in_image": True,
        "roundtrip_identity": roundtrip,
        "is_involution": involution,
    }
    gamma = None
    if roundtrip and involution:
        gamma = kls_function(kernel, bar.grading)
        report["kls"] = {
            f"{list(bar.poset.elements[i])}<={list(bar.poset.elements[j])}": p.to_text()
            for (i, j), p in sorted(gamma.values.items())
        }
    return (0 if roundtrip and involution else 1), report, gamma


def render(code, report, fmt, path):
    """Write a report to path as ``ivhecke pkernel --format fmt`` does; the exit code."""
    if code is None:
        return cli._fail(report, fmt, path)
    cli._emit_report(report, fmt, path)
    return code


def convolve(f, g):
    """(fg)(x, y) = sum over x <= t <= y of f(x, t) g(t, y)."""
    if f.poset is not g.poset and f.poset != g.poset:
        raise ValueError("convolution requires a common poset")
    poset = f.poset
    out = {}
    for i, j in poset.pairs():
        acc = ZERO
        ideal = poset.lower[j]
        for t in ideal[bisect_left(ideal, i):]:
            if poset.leq(i, t):
                acc = acc.addmul(f.values.get((i, t), ZERO), g.values.get((t, j), ZERO))
        if acc:
            out[(i, j)] = acc
    return IncidenceFunction(poset, out)


def delta(poset):
    """The convolution unit: 1 on the diagonal."""
    return IncidenceFunction(poset, {(i, i): ONE for i in range(len(poset))})


def is_p_kernel(K, r):
    """Whether psi_K is an involution."""
    return bar_from_kernel(K, r).is_involution()


def halve_exponents(p):
    """p(v) read in q = v^2; ValueError if p has an odd exponent."""
    if p.val % 2 or any(p.coeffs[1::2]):
        raise ValueError(f"{p.to_text()} has an odd exponent and cannot be halved")
    return LaurentPoly(p.val // 2, p.coeffs[::2])


def kernel_by_products(bar):
    """``kernel_from_bar``'s values, or its NotParityCompatible, through products."""
    r = check_grading(bar.poset, bar.grading)
    entries = {(i, j): p for j, column in bar.columns.items() for i, p in column.items()}
    values = {}
    for i, j in sorted(entries, key=lambda ij: (ij[1], r[ij[1]] - r[ij[0]], ij[0])):
        p = entries[(i, j)]
        g = p * monomial(-(r[j] - r[i]))
        try:
            k = halve_exponents(g.bar())
        except ValueError:
            k = None
        if k is None or g.degree > 0:
            raise NotParityCompatible(
                "bar-matrix entry outside Z[v^-2] * v^r",
                {
                    "pair": [
                        _label_json(bar.poset.elements[i]),
                        _label_json(bar.poset.elements[j]),
                    ],
                    "entry": p.to_json(),
                    "shift": r[j] - r[i],
                },
            )
        values[(i, j)] = k
    return IncidenceFunction(bar.poset, values)


def kls_values_by_products(entries, r, labels):
    """``_kls_values``, or its RuntimeError, through products."""
    values = {}
    for (i, j), p in entries.items():
        shift = r[j] - r[i]
        g = p * monomial(shift)
        try:
            gamma = halve_exponents(g)
        except ValueError:
            gamma = None
        if gamma is None or g.valuation < 0:
            raise RuntimeError(
                f"internal error: canonical entry {p.to_text()} at "
                f"({labels[i]}, {labels[j]}) is not a q-polynomial"
            )
        if i != j and 2 * gamma.degree >= shift:
            raise RuntimeError(
                f"internal error: deg_q {gamma.degree} breaks the bound at "
                f"({labels[i]}, {labels[j]})"
            )
        if i == j and gamma != ONE:
            raise RuntimeError("internal error: KLS diagonal must be 1")
        values[(i, j)] = gamma
    return values
