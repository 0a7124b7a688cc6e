"""Tests for P-kernels, the bar bijection, and KLS functions.

The q-polynomial values are LaurentPoly objects read in the variable q;
monomial(1) is q.  The Kazhdan-Lusztig table of the regular module serves
as the oracle for the KLS computations.
"""

from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from ivhecke import cli
from ivhecke.classify import enumerate_candidates
from ivhecke.coxeter import parse_system
from ivhecke.hecke import HeckeAlgebra, NotPreCanonical
from ivhecke.ivmodules import StructureMatrix, TwistedModule
from ivhecke.laurent import ONE, V, VI, ZERO, LaurentPoly, monomial
from ivhecke.pkernel import (
    BarMatrix,
    IncidenceFunction,
    NotParityCompatible,
    Poset,
    bar_from_kernel,
    bar_involution,
    check_grading,
    hecke_bar_matrix,
    kernel_from_bar,
    kernel_report,
    kls_function,
    module_bar_matrix,
    module_kls_function,
    poset_of_block,
)
from ivhecke.pkernel import _bar_matrix, _kls_values
from ivhecke.twisted import GroupBlock, TwistedBlock, involutive_automorphisms, parse_theta

from bar_matrix_oracle import is_involution_by_scan
from pkernel_oracle import (
    convolve,
    delta,
    halve_exponents,
    is_p_kernel,
    kernel_by_products,
    kls_values_by_products,
    pkernel_outcome,
    render,
)
from peel_oracle import column_index
from row_solve_oracle import solve_canonical

Q = monomial(1)  # the variable q


def chain(n):
    """A totally ordered n-element poset labeled 0..n-1."""
    return Poset(tuple(range(n)), tuple(tuple(range(j + 1)) for j in range(n)))


# ----------------------------------------------------------------------
# posets

def test_poset_validation():
    for elements, lower, message in (
        ("xy", ((0,),), "one principal ideal per element"),
        ("x", ((),), "reflexive"),
        ("xy", ((0,), (0,)), "reflexive"),  # the ideal of y does not end in y
        ("xy", ((0, 1), (1,)), "linear extension"),  # y <= x, listed after x
        ("xy", ((0,), (1, 0)), "linear extension"),  # an unsorted ideal
        ("xy", ((0,), (-1, 1)), "linear extension"),  # a negative index
        ("xyz", ((0,), (0, 1), (1, 2)), "transitive"),  # x <= y <= z, but not x <= z
    ):
        with pytest.raises(ValueError, match=message):
            Poset(tuple(elements), lower)


@pytest.mark.parametrize(
    "name,theta", [("A3", None), ("B3", None), ("I2(5)", None), ("A3", (2, 1, 0))]
)
def test_poset_of_block_is_the_word_level_order(name, theta):
    system = parse_system(name)
    block = GroupBlock(system) if theta is None else TwistedBlock(system, theta)
    poset = poset_of_block(block)
    elements = poset.elements  # the x-components, for a twisted block
    for j in range(len(poset)):
        for i in range(len(poset)):
            assert poset.leq(i, j) == system.bruhat_leq(elements[i], elements[j]), (name, theta, i, j)


@pytest.mark.parametrize("name", ["A3", "B3", "H3"])
def test_poset_of_block_passes_the_validator(name):
    # poset_of_block skips Poset's checks; the intervals pass them all
    system = parse_system(name)
    blocks = [GroupBlock(system)] + [TwistedBlock(system, t) for t in involutive_automorphisms(system)]
    for block in blocks:
        poset = poset_of_block(block)
        assert Poset(poset.elements, poset.lower) == poset


def test_poset_pairs():
    p = chain(3)
    assert p.pairs() == [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)]


def test_check_grading():
    p = chain(2)
    assert check_grading(p, [0, 5]) == (0, 5)
    with pytest.raises(ValueError):
        check_grading(p, [1, 1])
    with pytest.raises(ValueError):
        check_grading(p, [0])


# ----------------------------------------------------------------------
# incidence algebra

def test_incidence_validation():
    p = chain(2)
    with pytest.raises(ValueError):  # off-order pair
        IncidenceFunction(p, {(1, 0): ONE})
    with pytest.raises(ValueError):  # not a polynomial in q
        IncidenceFunction(p, {(0, 1): monomial(-1)})
    f = IncidenceFunction(p, {(0, 0): ONE, (0, 1): ZERO})
    assert (0, 1) not in f.values  # zeros are dropped
    assert f.values.get((0, 1), ZERO) == ZERO
    for pair in ((-1, 2), (0, 3)):  # a negative index must not wrap round
        with pytest.raises(ValueError, match="outside the poset"):
            IncidenceFunction(chain(3), {pair: ONE})


def test_convolution_unit_law():
    p = chain(3)
    f = IncidenceFunction(
        p, {(i, i): ONE for i in range(3)} | {(0, 1): Q, (1, 2): Q + 1, (0, 2): Q**2}
    )
    d = delta(p)
    assert convolve(f, d).values == f.values
    assert convolve(d, f).values == f.values
    assert convolve(d, d).values == d.values


def test_convolution_two_chain():
    p = chain(2)
    f = IncidenceFunction(p, {(0, 0): ONE, (1, 1): ONE, (0, 1): Q})
    assert convolve(f, f).values.get((0, 1), ZERO) == 2 * Q


def test_convolution_associative():
    p = chain(3)
    f = IncidenceFunction(p, {(0, 0): ONE, (1, 1): 2 * ONE, (2, 2): ONE, (0, 1): Q})
    g = IncidenceFunction(p, {(i, i): ONE for i in range(3)} | {(1, 2): Q + 3})
    h = IncidenceFunction(p, {(i, i): Q for i in range(3)} | {(0, 2): ONE})
    assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


def test_convolution_poset_mismatch():
    f = IncidenceFunction(chain(2), {(0, 0): ONE})
    g = IncidenceFunction(chain(3), {(0, 0): ONE})
    with pytest.raises(ValueError):
        convolve(f, g)


# ----------------------------------------------------------------------
# the bijection on a hand-checked example

def test_two_chain_kernel_and_bar():
    # K = R-kernel of A1 in the abstract: diag 1, edge q - 1, gap 1
    p = chain(2)
    K = IncidenceFunction(p, {(0, 0): ONE, (1, 1): ONE, (0, 1): Q - 1})
    bm = bar_from_kernel(K, (0, 1))
    # v^1 * bar(v^2 - 1) = v(v^-2 - 1) = v^-1 - v
    assert bm.columns[1].get(0, ZERO) == monomial(-1) - monomial(1)
    assert bm.is_involution()
    assert is_p_kernel(K, (0, 1))
    assert kernel_from_bar(bm) == K
    gamma = kls_function(K, (0, 1))
    assert gamma.values.get((0, 1), ZERO) == ONE and gamma.values.get((0, 0), ZERO) == ONE


def test_two_chain_non_kernel():
    p = chain(2)
    K = IncidenceFunction(p, {(0, 0): ONE, (1, 1): ONE, (0, 1): ONE})
    assert not is_p_kernel(K, (0, 1))


# ----------------------------------------------------------------------
# kls_function's own failures, and its values against the row-solve oracle

def test_kls_function_refuses_a_diagonal_other_than_1():
    K = IncidenceFunction(chain(2), {(0, 0): ONE, (1, 1): 2 * ONE, (0, 1): Q - 1})
    with pytest.raises(NotPreCanonical) as exc:
        kls_function(K, (0, 1))
    assert exc.value.witness == {"element": 1, "diagonal": {"0": 2}}


def test_kls_function_refuses_a_kernel_that_is_no_involution():
    # psi_K(a_1) = a_1 + v a_0 has psi_K^2 != id; the defect v is not antisymmetric
    K = IncidenceFunction(chain(2), {(0, 0): ONE, (1, 1): ONE, (0, 1): ONE})
    with pytest.raises(NotPreCanonical) as exc:
        kls_function(K, (0, 1))
    assert exc.value.witness == {"column": 1, "element": 0, "defect": {"1": 1}}


def boolean_lattice(n):
    """The subsets of range(n) by size, then lexicographically, with the
    characteristic kernel K(x, y) = (q - 1)^{|y| - |x|} of an Eulerian poset."""
    subsets = sorted((frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)), key=lambda x: (len(x), sorted(x)))
    lower = tuple(tuple(i for i, x in enumerate(subsets) if x <= y) for y in subsets)
    poset = Poset(tuple(tuple(sorted(x)) for x in subsets), lower)
    values = {(i, j): (Q - 1) ** (len(subsets[j]) - len(subsets[i])) for i, j in poset.pairs()}
    return IncidenceFunction(poset, values), tuple(map(len, subsets))


def abstract_kernel(name):
    """(K, r): the Boolean lattice's kernel, or a Hecke kernel on a validated copy of its poset, with no module behind it."""
    if name == "boolean3":
        return boolean_lattice(3)
    bar = hecke_bar_matrix(parse_system(name))
    K = kernel_from_bar(bar)
    return IncidenceFunction(Poset(K.poset.elements, K.poset.lower), dict(K.values)), bar.grading


@pytest.mark.parametrize("name", ["boolean3", "B3", "H3"])
def test_kls_function_is_the_row_solve(name):
    K, r = abstract_kernel(name)
    assert is_p_kernel(K, r)
    poset = K.poset
    bar = bar_from_kernel(K, r)
    entries = solve_canonical(r, poset.lower.__getitem__, lambda j: bar.columns.get(j, {}), labels=poset.elements)
    expected = _kls_values(column_index(entries), r, poset.elements)
    assert list(kls_function(K, r).values.items()) == list(expected.items())


def test_parity_failure_witness():
    # entry v^{r}+v^{r-1} mixes parities after the shift
    p = chain(2)
    bm = BarMatrix(p, (0, 2), {0: {0: ONE}, 1: {1: ONE, 0: monomial(2) + monomial(1)}})
    with pytest.raises(NotParityCompatible) as exc:
        kernel_from_bar(bm)
    assert exc.value.witness["pair"] == [0, 1]
    # entry with exponent above the shift is outside the image too
    bm = BarMatrix(p, (0, 2), {1: {0: monomial(4)}})
    with pytest.raises(NotParityCompatible):
        kernel_from_bar(bm)


def test_parity_witness_is_nearest_the_diagonal():
    # two bad entries in column 2: the one with the smaller shift is reported,
    # whatever the order of the column's keys
    p = chain(3)
    bad = {0: monomial(1), 1: monomial(1) + ONE}
    for column in (bad, dict(reversed(bad.items()))):
        with pytest.raises(NotParityCompatible) as exc:
            kernel_from_bar(BarMatrix(p, (0, 1, 2), {2: column}))
        assert exc.value.witness == {"pair": [1, 2], "entry": {"0": 1, "1": 1}, "shift": 1}
    # a block module: I2(5), the flip, iota graded by rho
    bm = module_bar_matrix(parse_system("I2(5)"), (1, 0), "iota", "rho")
    with pytest.raises(NotParityCompatible) as exc:
        kernel_from_bar(bm)
    assert exc.value.witness == {
        "pair": [[0, 1], [0, 1, 0, 1, 0]],
        "entry": {"-2": 1, "-1": -1, "0": -2, "1": 1, "2": 1},
        "shift": 2,
    }


def test_parity_witnesses_are_the_products():
    # an odd exponent, and a positive degree after the shift: the witnesses
    # of the tuple read-off are those of the product, bar and halving
    p = chain(2)
    for entry, shift, witness in (
        (monomial(2) + monomial(1), 2, {"pair": [0, 1], "entry": {"1": 1, "2": 1}, "shift": 2}),
        (monomial(4) + monomial(-2), 2, {"pair": [0, 1], "entry": {"-2": 1, "4": 1}, "shift": 2}),
    ):
        bm = BarMatrix(p, (0, shift), {0: {0: ONE}, 1: {1: ONE, 0: entry}})
        for read_off in (kernel_from_bar, kernel_by_products):
            with pytest.raises(NotParityCompatible) as exc:
                read_off(bm)
            assert exc.value.witness == witness


def outcome(read_off, *args):
    """read_off's value, or its error's type, message and witness."""
    try:
        return read_off(*args)
    except (NotParityCompatible, RuntimeError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


laurent_polys = st.builds(
    LaurentPoly, st.integers(-6, 6), st.lists(st.integers(-2, 2), min_size=1, max_size=6)
).filter(bool)


@settings(max_examples=200, deadline=None)
@given(st.lists(laurent_polys, min_size=6, max_size=6), st.sampled_from([(0, 1, 2), (0, 2, 4), (0, 1, 3)]))
@example([ONE, ONE, ONE, monomial(-1), monomial(-2), monomial(-1)], (0, 1, 2))
def test_kernel_read_off_is_the_products(polys, grading):
    columns = {0: {}, 1: {}, 2: {}}
    for (i, j), p in zip([(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)], polys):
        columns[j][i] = p
    bm = BarMatrix(chain(3), grading, columns)
    assert outcome(kernel_from_bar, bm) == outcome(kernel_by_products, bm)


@settings(max_examples=200, deadline=None)
@given(st.lists(laurent_polys, min_size=3, max_size=3), st.sampled_from([(0, 1, 2), (0, 2, 4), (0, 3, 5)]))
@example([ONE, ONE, monomial(-1)], (0, 1, 2))
@example([ONE, ONE, monomial(-1) + monomial(-3)], (0, 2, 4))
@example([ONE, monomial(2), monomial(-1)], (0, 1, 2))
def test_kls_read_off_is_the_products(polys, grading):
    entries = dict(zip([(0, 0), (1, 1), (0, 2)], polys))
    labels = ["x", "y", "z"]
    assert outcome(_kls_values, column_index(entries), grading, labels) == outcome(
        kls_values_by_products, entries, grading, labels
    )


@pytest.mark.parametrize("name", ["A3", "B3", "H3"])
def test_module_kernels_are_the_products(name):
    system = parse_system(name)
    matrices = [hecke_bar_matrix(system)]
    for theta in involutive_automorphisms(system):
        for label in ("pi", "pi_prime"):
            matrices.append(module_bar_matrix(system, theta, label, "length"))
    for bm in matrices:
        K = kernel_from_bar(bm)  # proven, so not validated: the validation passes
        assert list(K.values.items()) == list(kernel_by_products(bm).values.items())
        assert IncidenceFunction(bm.poset, K.values) == K
    table = HeckeAlgebra(system).kl_table()
    assert _kls_values(table.columns, table.ranks, table.elements) == kls_values_by_products(
        table.entries, table.ranks, table.elements
    )


# ----------------------------------------------------------------------
# Hecke bridges

def test_hecke_kernel_a1():
    bm = hecke_bar_matrix(parse_system("A1"))
    K = kernel_from_bar(bm)
    assert K.values.get((0, 1), ZERO) == Q - 1  # the R-polynomial of the edge
    assert K.values.get((0, 0), ZERO) == ONE and K.values.get((1, 1), ZERO) == ONE
    assert bar_from_kernel(K, bm.grading).columns == bm.columns


def test_hecke_kernel_roundtrips():
    for name in ("A2", "B2"):
        bm = hecke_bar_matrix(parse_system(name))
        K = kernel_from_bar(bm)
        assert is_p_kernel(K, bm.grading)
        assert bar_from_kernel(K, bm.grading).columns == bm.columns


def test_kls_equals_kl_polynomials():
    for name in ("A2", "B2"):
        sysm = parse_system(name)
        bm = hecke_bar_matrix(sysm)
        gamma = kls_function(kernel_from_bar(bm), bm.grading)
        table = HeckeAlgebra(sysm).kl_table()
        assert set(gamma.values) == set(table.entries)
        for (i, j), p in table.entries.items():
            gap = len(table.elements[j]) - len(table.elements[i])
            assert gamma.values.get((i, j), ZERO) == halve_exponents(p * monomial(gap))


def test_kls_a2_trivial():
    bm = hecke_bar_matrix(parse_system("A2"))
    gamma = kls_function(kernel_from_bar(bm), bm.grading)
    assert all(p == ONE for p in gamma.values.values())
    assert len(gamma.values) == len(bm.poset.pairs())


def test_total_acceptability():
    # (K gamma)(x, y) = q^{r(x,y)} * bar(gamma(x, y))
    for name in ("A2", "B2"):
        bm = hecke_bar_matrix(parse_system(name))
        K = kernel_from_bar(bm)
        gamma = kls_function(K, bm.grading)
        conv = convolve(K, gamma)
        for i, j in bm.poset.pairs():
            shift = bm.grading[j] - bm.grading[i]
            assert conv.values.get((i, j), ZERO) == monomial(shift) * gamma.values.get((i, j), ZERO).bar()


def test_block_modules_in_image():
    # both squared-parameter structures give kernels with r = length
    for name in ("A2", "B2"):
        sysm = parse_system(name)
        for label in ("pi", "pi_prime"):
            bm = module_bar_matrix(sysm, sysm.identity_perm(), label, "length")
            K = kernel_from_bar(bm)
            assert is_p_kernel(K, bm.grading)
            assert bar_from_kernel(K, bm.grading).columns == bm.columns


def test_block_module_kls_a1():
    sysm = parse_system("A1")
    bm = module_bar_matrix(sysm, sysm.identity_perm(), "pi", "length")
    gamma = kls_function(kernel_from_bar(bm), bm.grading)
    assert gamma.values.get((0, 1), ZERO) == ONE


def test_iota_not_parity_compatible():
    sysm = parse_system("I2(4)")
    theta = sysm.identity_perm()
    for grading in ("length", "rho"):
        bm = module_bar_matrix(sysm, theta, "iota", grading)
        with pytest.raises(NotParityCompatible) as exc:
            kernel_from_bar(bm)
        assert "pair" in exc.value.witness and "entry" in exc.value.witness


def _perturbed(bm):
    """A copy with the first off-diagonal entry (by column, then row) plus 1."""
    j, i = min((j, i) for j, column in bm.columns.items() for i in column if i != j)
    columns = {k: dict(column) for k, column in bm.columns.items()}
    columns[j][i] = columns[j][i] + 1
    return BarMatrix(bm.poset, bm.grading, columns)


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "I2(5)"])
def test_bar_matrix_checks_match_the_scan_oracle(name):
    sysm = parse_system(name)
    matrices = [hecke_bar_matrix(sysm)]
    for theta in involutive_automorphisms(sysm):
        for label in ("pi", "pi_prime", "iota"):
            for grading in ("length", "rho"):
                matrices.append(module_bar_matrix(sysm, theta, label, grading))
    for bm in matrices:
        assert bm.is_involution() and is_involution_by_scan(bm)
        bad = _perturbed(bm)
        assert not bad.is_involution() and not is_involution_by_scan(bad)


@pytest.mark.parametrize("name", ["A3", "I2(5)"])
def test_a_module_bar_matrix_holds_the_module_rows(name):
    sysm = parse_system(name)
    matrices = [hecke_bar_matrix(sysm)]
    for theta in involutive_automorphisms(sysm):
        for label in ("pi", "pi_prime", "iota"):
            matrices.append(module_bar_matrix(sysm, theta, label, "length"))
    for bm in matrices:
        assert list(bm.columns) == list(range(len(bm.poset)))
        assert all(bm.columns[j] is bm.module.bar_row(j) for j in bm.columns)


def test_module_bar_matrix_bad_grading():
    sysm = parse_system("A2")
    with pytest.raises(ValueError):
        module_bar_matrix(sysm, sysm.identity_perm(), "pi", "height")


def test_halve_exponents():
    assert halve_exponents(monomial(4) + 2 * monomial(2)) == monomial(2) + 2 * Q
    assert halve_exponents(monomial(-2) - monomial(4)) == monomial(-1) - Q**2
    assert halve_exponents(ZERO) == ZERO
    with pytest.raises(ValueError):  # an odd valuation
        halve_exponents(monomial(3))
    with pytest.raises(ValueError):  # an odd exponent inside
        halve_exponents(monomial(-2) + monomial(1) + monomial(2))


# ----------------------------------------------------------------------
# the module path of the pkernel command against the psi-row oracle

def pkernel_cases():
    """(system, basis, theta, grading): the regular module of six systems,
    and every named block structure on four, each involutive theta, both
    gradings; iota and the rho-graded pi's are parity failures."""
    cases = [(name, "h", "id", "length") for name in ("A3", "B3", "H3", "D4", "I2(5)", "I2(8)")]
    for name in ("A3", "B3", "D4", "I2(5)"):
        for theta in involutive_automorphisms(parse_system(name)):
            for basis in ("pi", "pi_prime", "iota"):
                for grading in ("length", "rho"):
                    cases.append((name, basis, ",".join(map(str, theta)), grading))
    return cases + [("I2(4)", "iota", "id", grading) for grading in ("length", "rho")]


@lru_cache(maxsize=None)
def oracle(case):
    return pkernel_outcome(*case)


def case_bar(name, basis, theta, grading):
    system = parse_system(name)
    if basis == "h":
        return hecke_bar_matrix(system)
    return module_bar_matrix(system, parse_theta(system, theta), basis, grading)


@pytest.mark.parametrize("case", pkernel_cases(), ids=lambda c: "-".join(c))
def test_pkernel_cli_bytes_are_the_oracles(case, tmp_path):
    name, basis, theta, grading = case
    code, report, _gamma = oracle(case)
    for fmt in ("json", "text"):
        ours, theirs = tmp_path / f"cli.{fmt}", tmp_path / f"oracle.{fmt}"
        argv = ["pkernel", "--system", name, "--basis", basis, "--theta", theta, "--grading", grading]
        assert cli.main(argv + ["--format", fmt, "--out", str(ours)]) == render(code, report, fmt, str(theirs))
        assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("case", pkernel_cases(), ids=lambda c: "-".join(c))
def test_module_answers_are_the_full_passes(case):
    """The check-based psi^2 = id is the scan's; the table's gamma is the row solve's."""
    bar = case_bar(*case)
    involution, module = bar_involution(bar)
    assert (involution, module) == (is_involution_by_scan(bar), bar.module)
    assert involution is True
    _code, _report, gamma = oracle(case)
    if gamma is not None:
        assert module_kls_function(module, bar.poset, bar.grading).values == gamma.values


def spy_on_tables(monkeypatch):
    """Record every module whose canonical table is built."""
    built = []
    original = TwistedModule.canonical_table

    def canonical_table(self, *args, **kwargs):
        built.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TwistedModule, "canonical_table", canonical_table)
    return built


def test_a_rejected_candidate_falls_back_to_the_full_pass(monkeypatch):
    # a classification candidate whose psi rows all derive, with psi^2 = id,
    # but whose diagonal is v^-2 somewhere: check_precanonical rejects it
    cand = next(c for c in enumerate_candidates("classified_families", "h2i") if c.provenance == "pi[v,1]")
    block = TwistedBlock(parse_system("A2"), (0, 1))
    module = TwistedModule(block, "candidate", cand.gamma)
    with pytest.raises(NotPreCanonical):
        module.check_precanonical()
    bar = _bar_matrix(module, tuple(block.rho))
    built = spy_on_tables(monkeypatch)
    full_passes = []
    monkeypatch.setattr(BarMatrix, "is_involution", lambda self: full_passes.append(self) or is_involution_by_scan(self))
    assert bar_involution(bar) == (True, None)
    assert full_passes == [bar]
    # the psi-row solve refuses the diagonal, as it always did
    with pytest.raises(NotPreCanonical) as exc:
        kernel_report(bar)
    assert exc.value.witness == {"element": (0, 1, 0), "diagonal": {"-2": 1}}
    assert built == []


def test_a_failed_check_reports_the_row_solve(monkeypatch):
    # on the A2 group block this structure fails intertwining, yet psi is an
    # involution: the report is that of the full pass and of the psi-row solve
    block = GroupBlock(parse_system("A2"))
    structure = StructureMatrix(False, ((ONE, -VI), (-V, V - VI)) * 2)
    module = TwistedModule(block, "candidate", structure)
    with pytest.raises(NotPreCanonical, match="intertwining"):
        module.check_precanonical()
    bar = _bar_matrix(module, tuple(block.rho))
    built = spy_on_tables(monkeypatch)
    involution, gamma = kernel_report(bar)
    assert (involution, is_involution_by_scan(bar)) == (True, True)
    assert gamma == kls_function(kernel_from_bar(bar), bar.grading)
    assert built == []
