"""The output writers: tables and ``pkernel`` reports, byte for byte.

``CanonicalTable.to_csv``/``to_json``/``to_text`` write their lines straight
from the table's rows, and the ``pkernel`` report writes its kls entries in
chunks; each must produce the bytes of the whole-document writers they
replaced (``tests/output_oracle.py``).  The CSV lines skip ``csv.writer`` on
the grounds that no field needs quoting, which the hypothesis tests below pin.
"""

import csv
import hashlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from ivhecke import cli
from ivhecke.coxeter import parse_system
from ivhecke.hecke import CanonicalTable
from ivhecke.ivmodules import canonical_table
from ivhecke.laurent import LaurentPoly
from ivhecke.twisted import parse_theta

import output_oracle

MATRIX_SYSTEM = '{"matrix": [[1, 3, 2], [3, 1, 4], [2, 4, 1]]}'  # B3, unnamed
TABLE_SYSTEMS = [("A3", "2,1,0"), ("B3", "id"), ("H3", "id"), ("I2(5)", "id"), (MATRIX_SYSTEM, "id")]
BASES = ("h", "pi", "pi_prime", "iota")


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


# ----------------------------------------------------------------------
# the CSV precondition: no field can need quoting

#: the characters ``LaurentPoly.to_text`` may write, and those of an element's label
POLY_CHARS = set("0123456789v^*+- ")
LABEL_CHARS = set("0123456789 e")
NEEDS_QUOTING = set(',"\r\n')

coefficients = st.one_of(
    st.integers(-5, 5),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**70, -(2**70), 2**70 + 1, -(2**70) + 1]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(-40, 40), st.lists(coefficients, max_size=8))
def test_poly_text_needs_no_csv_quoting(val, coeffs):
    text = LaurentPoly(val, coeffs).to_text()
    assert set(text) <= POLY_CHARS
    assert not set(text) & NEEDS_QUOTING


def random_table(data):
    """A CanonicalTable over random words, with random entries on random pairs, some columns empty."""
    rank = data.draw(st.integers(1, 10))  # A10 has 55 positive roots; A11 is refused
    words = data.draw(
        st.lists(st.lists(st.integers(0, rank - 1), max_size=6).map(tuple), min_size=1, max_size=6, unique=True)
    )
    n = len(words)
    keys = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20, unique=True))
    columns = {j: {} for j in range(n)}
    for i, j in keys:
        columns[j][i] = LaurentPoly(data.draw(st.integers(-30, 30)), data.draw(st.lists(coefficients, min_size=1, max_size=5)))
    system = parse_system(f"A{rank}")
    return CanonicalTable("h", system, tuple(range(rank)), words, [len(w) for w in words], columns)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_csv_reads_back_to_the_rows(data):
    """csv.reader reads a table's CSV back to exactly its (x, w, poly) rows, in every format alike."""
    table = random_table(data)
    labels = table._labels()
    assert labels == output_oracle.text_labels(table)
    for label in labels:
        assert set(label) <= LABEL_CHARS and not set(label) & NEEDS_QUOTING
    rows = [list(row) for row in output_oracle.table_rows(table, labels, LaurentPoly.to_text)]
    assert list(csv.reader(io.StringIO(table.to_csv()))) == [["x", "w", "poly"]] + rows
    for fmt, writer in output_oracle.TABLE_WRITERS.items():
        assert getattr(table, f"to_{fmt}")() == writer(table), fmt


@pytest.mark.parametrize("system,theta", [("B3", "id"), ("A3", "2,1,0")])
def test_a_tables_csv_reads_back_to_its_rows(system, theta):
    W = parse_system(system)
    table = canonical_table(W, parse_theta(W, theta), "pi_prime")
    rows = output_oracle.table_rows(table, output_oracle.text_labels(table), LaurentPoly.to_text)
    assert list(csv.reader(io.StringIO(table.to_csv()))) == [["x", "w", "poly"]] + [list(r) for r in rows]


# ----------------------------------------------------------------------
# byte identity against the whole-document writers

@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("system,theta", TABLE_SYSTEMS, ids=lambda v: v[:8])
def test_table_formats_match_the_oracle(system, theta, basis, capsys):
    for fmt in ("csv", "json", "text"):
        argv = ["table", "--system", system, "--theta", theta, "--basis", basis, "--format", fmt]
        assert run(capsys, argv) == (0, output_oracle.table_output(system, theta, basis, fmt)), fmt


def pkernel_argvs():
    """h on the table systems; a twisted basis on the twisted ones, both gradings; the I2(4) witness."""
    argvs = [["--system", system, "--basis", "h"] for system, _theta in TABLE_SYSTEMS]
    for system, theta in TABLE_SYSTEMS:
        for basis in ("pi", "pi_prime"):
            for grading in ("length", "rho"):
                argvs.append(["--system", system, "--theta", theta, "--basis", basis, "--grading", grading])
    return argvs + [["--system", "I2(4)", "--basis", "iota", "--grading", "rho"]]


@pytest.mark.parametrize("argv", pkernel_argvs(), ids=lambda a: "-".join(a[1::2])[:40])
def test_pkernel_reports_match_the_oracle(argv, capsys):
    for fmt in ("json", "text"):
        full = ["pkernel", *argv, "--format", fmt]
        assert run(capsys, full) == output_oracle.pkernel_output(full), fmt


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@pytest.mark.slow
def test_f4_outputs_match_the_oracle(tmp_path):
    """F4's h table in CSV and JSON (150 MB), and its pkernel report in JSON (37 MB).

    The table's JSON oracle is hashed chunk by chunk as json's encoder
    yields them (``json.dumps(doc, indent=2)`` joins exactly these), so the
    oracle never holds its 150 MB document whole.
    """
    path = tmp_path / "out"
    table = canonical_table(parse_system("F4"), (0, 1, 2, 3), "h")
    argv = ["table", "--system", "F4", "--basis", "h", "--out", str(path), "--format"]
    assert cli.main(argv + ["csv"]) == 0
    assert file_digest(path) == hashlib.sha256(output_oracle.emitted(output_oracle.table_csv(table)).encode()).hexdigest()
    assert cli.main(argv + ["json"]) == 0
    digest = hashlib.sha256()
    for chunk in json.JSONEncoder(indent=2).iterencode(output_oracle.table_json_doc(table)):
        digest.update(chunk.encode())
    digest.update(b"\n")
    assert file_digest(path) == digest.hexdigest()
    argv = ["pkernel", "--system", "F4", "--basis", "h", "--format", "json"]
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert (0, path.read_text()) == output_oracle.pkernel_output(argv)


# ----------------------------------------------------------------------
# stdout and --out receive the same bytes

def every_command():
    argvs = []
    for fmt in ("csv", "json", "text"):
        argvs.append(["table", "--system", "A2", "--basis", "iota", "--format", fmt])
    for fmt in ("json", "text"):
        argvs += [
            ["verify", "--system", "A2", "--format", fmt],
            ["invert", "--system", "B2", "--format", fmt],
            ["classify", "--mode", "hw", "--systems", "A2,B2", "--format", fmt],
            ["pkernel", "--system", "A2", "--basis", "h", "--format", fmt],
            ["pkernel", "--system", "B2", "--basis", "pi", "--grading", "rho", "--format", fmt],
            ["pkernel", "--system", "I2(4)", "--basis", "iota", "--grading", "rho", "--format", fmt],
        ]
    return argvs


@pytest.mark.parametrize("argv", every_command(), ids=lambda a: "-".join(a[::2]))
def test_stdout_and_out_get_the_same_bytes(argv, tmp_path, capsys):
    code, out = run(capsys, argv)
    path = tmp_path / "out"
    assert run(capsys, argv + ["--out", str(path)]) == (code, "")
    assert path.read_bytes() == out.encode()
    assert out.endswith("\n") and not out.endswith("\n\n")


@pytest.mark.parametrize(
    "chunks,expected",
    [
        ([], "\n"),
        ([""], "\n"),
        ("text", "text\n"),
        ("text\n", "text\n"),
        (["a", "b"], "ab\n"),
        (["a\n", ""], "a\n"),
        (["a\n", "", "b"], "a\nb\n"),
    ],
)
def test_emit_adds_a_newline_only_when_the_output_lacks_one(chunks, expected, tmp_path, capsys):
    """A text, or an iterator of chunks, gets a newline only when it does not end in one."""
    path = tmp_path / "out"
    for destination in (str(path), None):
        cli._emit(chunks if isinstance(chunks, str) else iter(chunks), destination)
    assert path.read_text() == capsys.readouterr().out == expected
