"""The CLI's serialized bytes against independent oracles.

CSV cells must be `format(v, ".17g")` of the value the library handed over,
and the polynomial export must be exactly what `json.dumps` writes for the
interchange dicts.
"""

import json

import numpy as np
import pytest

from pdemosc import Kind, build_grid, gf_polynomial, make_family, run, to_json_dict
from pdemosc import arrays, discrete
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
        honest = arrays.eigenfunction_samples

        def samples(family, n, grid):
            seen[n] = _plant(n, honest(family, n, grid))
            return seen[n]
        monkeypatch.setattr(arrays, "eigenfunction_samples", samples)
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
    x = build_grid(fam, 700).points
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
