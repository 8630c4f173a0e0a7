"""The CLI's serialized bytes against independent oracles.

CSV cells must be `format(v, ".17g")` of the value the library handed over,
and the polynomial export must be exactly what `json.dumps` writes for the
interchange dicts.
"""

import contextlib
import hashlib
import io
import json
import math
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pdemosc import (
    InvalidCountError,
    InvalidLambdaError,
    Kind,
    bound_state_count,
    build_grid,
    gf_polynomial,
    make_family,
    run,
    to_json_dict,
)
from pdemosc import cli, discrete, sampling
from pdemosc.polynomials import parameterization_for

# (level, node) cells planted into the library's output: a signed zero and
# two subnormals
PLANTED = {(0, 3): -0.0, (1, 300): 5e-324, (2, 511): -2.5e-310}


def _plant(n, phi):
    phi = np.array(phi, dtype=float)
    for (m, i), v in PLANTED.items():
        if m == n:
            phi[i] = v
    return phi


@pytest.mark.parametrize("source", ["algebraic", "numeric"])
def test_eigenfunction_csv_cells_are_17g_of_library_values(capsys, monkeypatch,
                                                          source):
    seen = {}
    if source == "algebraic":
        honest = sampling.eigenfunction_lists

        def samples(family, n_max, grid):
            columns = [_plant(n, v).tolist()
                       for n, v in enumerate(honest(family, n_max, grid))]
            seen.update(enumerate(columns))
            return columns
        monkeypatch.setattr(sampling, "eigenfunction_lists", samples)
    else:
        honest = discrete.eigenpair_lists

        def solve(*args):
            values, vectors = honest(*args)
            vectors = [_plant(n, v).tolist() for n, v in enumerate(vectors)]
            seen.update(enumerate(vectors))
            return values, vectors
        monkeypatch.setattr(discrete, "eigenpair_lists", solve)
    # 700 nodes cross two chunk boundaries and end inside a third chunk
    argv = ["eigenfunctions", "--family", "case1", "--lambda", "0.1",
            "--n-max", "2", "--grid-n", "700", "--source", source]
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    fam = make_family(Kind.CASE1, 1.0, 0.1)
    x = build_grid(fam, 700).nodes()
    lines = out.split("\n")
    assert lines[0] == "x,phi_0,phi_1,phi_2" and lines[-1] == ""
    cells = [line.split(",") for line in lines[1:-1]]
    assert len(cells) == 700
    for i, row in enumerate(cells):
        want = [x[i]] + [seen[n][i] for n in range(3)]
        assert row == [format(float(v), ".17g") for v in want], i
    assert cells[3][1] == "-0"
    assert cells[300][2] == "4.9406564584124654e-324"
    assert cells[511][3] == "-2.5000000000000171e-310"


def rows_17g(header, columns):
    """The table formatted row by row, one "%.17g" per cell."""
    fmt = ",".join(["%.17g"] * len(columns))
    return "\n".join([header, *(fmt % row for row in zip(*columns))]) + "\n"


LAMBDAS = {
    Kind.CASE1: st.one_of(st.floats(0.02, 1.9), st.floats(-0.5, -0.01)),
    Kind.CASE2: st.one_of(st.floats(0.5, 100.0), st.floats(-50.0, -1.0)),
    Kind.CASE3: st.one_of(st.floats(0.05, 1.5), st.floats(-1.5, -0.05)),
    Kind.CONSTANT: st.just(0.0),
}


@st.composite
def eigenfunction_requests(draw):
    kind = draw(st.sampled_from(list(Kind)))
    alpha, lam = draw(st.floats(0.5, 2.0)), draw(LAMBDAS[kind])
    fam = make_family(kind, alpha, lam)
    count = bound_state_count(fam)
    assume(count != 0)
    grid_n = draw(st.integers(16, 400))  # even and odd, so with a centre row
    top = 40 if count is None else min(40, count - 1)
    n_max = draw(st.integers(0, min(top, grid_n - 1)))
    try:
        grid = build_grid(fam, grid_n)
    except (InvalidCountError, InvalidLambdaError):
        assume(False)
    source = draw(st.sampled_from(["algebraic", "numeric"]))
    argv = ["eigenfunctions", "--family", kind.value, "--alpha", repr(alpha),
            f"--lambda={lam!r}", "--n-max", str(n_max),
            "--grid-n", str(grid_n), "--source", source]
    return argv, fam, n_max, grid, source


@settings(deadline=None, max_examples=60)
@given(eigenfunction_requests())
def test_streamed_table_is_the_row_by_row_table(request):
    argv, fam, n_max, grid, source = request
    parities = []
    write = cli._csv_table

    def recorded(header, columns):
        parities.append([getattr(c, "odd", None) for c in columns])
        return write(header, columns)
    out = io.StringIO()
    with mock.patch.object(cli, "_csv_table", recorded), \
            contextlib.redirect_stdout(out):
        assert run(argv) == 0
    # build_grid centres its box, so both sources build every column
    # mirrored: x is odd and φ_n has the parity of n, and the writer
    # formats only the left half
    assert parities == [[n % 2 == 0 for n in range(n_max + 2)]]
    if source == "algebraic":
        columns = sampling.eigenfunction_lists(fam, n_max, grid)
    else:
        columns = discrete.eigenpair_lists(
            discrete.assemble_lists(fam, grid), n_max + 1, grid.h)[1]
    table = [grid.nodes(), *columns]
    header = "x," + ",".join(f"phi_{n}" for n in range(n_max + 1))
    assert out.getvalue() == rows_17g(header, table)


def _mirrored_table(n):
    """x, an even and an odd column on n mirrored nodes, as float lists."""
    x = [0.25 * (i - 0.5 * (n - 1)) for i in range(n)]
    even = [math.exp(-v * v) for v in x]
    return [x, even, [v * e for v, e in zip(x, even)]]


PARITIES = [True, False, True]  # of x, even and odd in _mirrored_table


def _planted(table, column, index, value, mirror_value):
    table[column][index] = value
    table[column][-1 - index] = mirror_value
    return table


def _built_mirrored(table, kinds=("mirrored",) * 3):
    """The columns as the kinds name them: a list, a plain array('d'), or
    an array that mirrored_array rebuilds from the first ⌈n/2⌉ entries."""
    n = len(table[0])
    return [c if kind == "list" else array("d", c) if kind == "array"
            else discrete.mirrored_array(c[:n - n // 2], n, odd)
            for kind, c, odd in zip(kinds, table, PARITIES)]


def _chunks(table):
    """The chunks _csv_table writes the table in, checked against the
    row-by-row text.  A table of up to 256 rows is the header and one
    chunk row by row, and the header, the left half, the centre row of
    an odd length and the right half when mirrored."""
    header = ",".join(f"c{j}" for j in range(len(table)))
    chunks = list(cli._csv_table(header, table))
    assert "".join(chunks) == rows_17g(header, table)
    return chunks


NAN = float("nan")


# a table of lists goes row by row, whatever it holds: a NaN, whose text
# has no sign to toggle, zeros that do not mirror, or values that do
@pytest.mark.parametrize("n", [40, 41])
@pytest.mark.parametrize("table", [
    _mirrored_table,
    lambda n: _planted(_mirrored_table(n), 1, 5, NAN, NAN),
    lambda n: _planted(_mirrored_table(n), 2, 0, NAN, NAN),
    lambda n: _planted(_mirrored_table(n), 2, 7, 0.0, 0.0),
    lambda n: _planted(_mirrored_table(n), 1, 3, -0.0, 0.0),
    lambda n: _mirrored_table(n)[:2] + [[v + 1.0 for v in _mirrored_table(n)[2]]],
], ids=["mirrors", "nan-even", "nan-odd", "zero-odd", "zero-even", "neither"])
def test_tables_of_lists_go_row_by_row(n, table):
    assert len(_chunks(table(n))) == 2


# signed zeros, infinities and subnormals in columns built mirrored take
# the half-text path and keep every byte; the mirror images are those
# mirrored_array makes
@pytest.mark.parametrize("n", [40, 41])
@pytest.mark.parametrize("table", [
    lambda n: _planted(_mirrored_table(n), 2, 7, 0.0, -0.0),
    lambda n: _planted(_mirrored_table(n), 1, 3, -0.0, -0.0),
    lambda n: _planted(_mirrored_table(n), 2, 0, -math.inf, math.inf),
    lambda n: _planted(_mirrored_table(n), 1, 6, math.inf, math.inf),
    lambda n: _planted(_mirrored_table(n), 1, 9, 5e-324, 5e-324),
    lambda n: _planted(_mirrored_table(n), 2, 4, -2.5e-310, 2.5e-310),
], ids=["zero-odd", "zero-even", "inf-odd", "inf-even", "subnormal-even",
        "subnormal-odd"])
def test_mirrored_tables_keep_every_byte(n, table):
    lists = table(n)
    columns = _built_mirrored(lists)
    assert [list(c) for c in columns] == lists
    assert [c.odd for c in columns] == PARITIES
    assert len(_chunks(columns)) == 3 + n % 2


# the library hands over columns as lists, plain array('d') and arrays
# built by mirrored_array: only a table whose every column is built
# mirrored takes the half-text path, and every mix writes the same text
@pytest.mark.parametrize("n", [40, 41])
@pytest.mark.parametrize("kinds", [
    ("list", "list", "list"), ("array", "array", "array"),
    ("mirrored", "list", "mirrored"), ("mirrored", "mirrored", "array"),
    ("list", "mirrored", "mirrored"), ("mirrored", "mirrored", "mirrored"),
], ids=["lists", "arrays", "mixed-list", "mixed-array", "mixed-list-first",
        "mirrored"])
@pytest.mark.parametrize("table", [
    _mirrored_table,
    lambda n: _planted(_mirrored_table(n), 2, 7, 0.0, -0.0),
    lambda n: _planted(_mirrored_table(n), 1, 3, -0.0, -0.0),
], ids=["plain", "zero-odd", "zero-even"])
def test_a_mixed_table_goes_row_by_row(n, kinds, table):
    lists = table(n)
    columns = _built_mirrored(lists, kinds)
    chunks = _chunks(columns)
    assert "".join(chunks) == "".join(_chunks(lists))
    mirrored = all(kind == "mirrored" for kind in kinds)
    assert len(chunks) == (3 + n % 2 if mirrored else 2)


def test_json_only_eigenfunctions_write_no_csv(tmp_path, capsys):
    argv = ["eigenfunctions", "--family", "case3", "--lambda", "0.2",
            "--n-max", "3", "--grid-n", "400", "--format", "json",
            "--output-dir", str(tmp_path)]
    assert run(argv) == 0
    out, _ = capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["eigenfunctions.json"]
    assert out == f"wrote {tmp_path / 'eigenfunctions.json'}\n"
    payload = json.loads((tmp_path / "eigenfunctions.json").read_text())
    assert len(payload["eigenvalues"]) == 4


@pytest.mark.parametrize("family,lam", [("case1", "0.1"), ("case2", "10"),
                                        ("case3", "0.2"), ("constant", "0")])
@pytest.mark.parametrize("symbolic", [False, True])
def test_polynomial_export_is_json_dumps(capsys, family, lam, symbolic):
    argv = ["polynomials", "--family", family, "--lambda", lam,
            "--n-max", "40"] + (["--symbolic"] if symbolic else [])
    assert run(argv) == 0
    out, _ = capsys.readouterr()
    par = parameterization_for(Kind(family))
    want = json.dumps([to_json_dict(gf_polynomial(n, par)) for n in range(41)])
    lines = out.split("\n")
    assert lines[-2:] == [want, ""]
    assert len(lines) == (2 + 42 if symbolic else 2)


# SHA-256 of `polynomials --n-max 40` stdout as written by the earlier
# construction in Fraction arithmetic; the integer representation must
# reproduce every byte, with and without --symbolic
POLYNOMIAL_DIGESTS = {
    ("case1", "0.1", False):
        "e8083c9bdd295a64123afbb0902f99a0cb0268330e50054216fc9e91316a310e",
    ("case1", "0.1", True):
        "34bbcca80e60794ab9c1c2647617fa8c995df1c47cad7fa7a1f175ab0db3a2f4",
    ("case2", "5", False):
        "9c0aec2885d1a0d777a47349daa1c4c710974c67561d26d8495f37d693d14824",
    ("case2", "5", True):
        "34187497336f9575a16047d9ac47f39b2c4e66dd57b8230883e3975fa19fd43e",
    ("case3", "0.5", False):
        "ceab567db3b2b3fd6cd509d625b30bfa423918c8c0adfefc99157dea1c7290ce",
    ("case3", "0.5", True):
        "ce283117db58c7a419034bd3756ee6ef6fed67bbee0ec6db96240dc6fe13220b",
    ("case3", "-0.5", False):
        "ceab567db3b2b3fd6cd509d625b30bfa423918c8c0adfefc99157dea1c7290ce",
    ("case3", "-0.5", True):
        "ce283117db58c7a419034bd3756ee6ef6fed67bbee0ec6db96240dc6fe13220b",
    ("constant", "0", False):
        "e8083c9bdd295a64123afbb0902f99a0cb0268330e50054216fc9e91316a310e",
    ("constant", "0", True):
        "beddce14b138a4d999815df9fc4604352a8eab8a444f9adb530d5d67f42e6003",
}


@pytest.mark.parametrize("family,lam,symbolic", list(POLYNOMIAL_DIGESTS))
def test_polynomial_output_bytes_are_pinned(capsys, family, lam, symbolic):
    argv = ["polynomials", "--family", family, f"--lambda={lam}",
            "--n-max", "40"] + (["--symbolic"] if symbolic else [])
    assert run(argv) == 0
    out, _ = capsys.readouterr()
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == POLYNOMIAL_DIGESTS[family, lam, symbolic]
