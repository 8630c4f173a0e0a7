"""Every library name the benchmark reads resolves.

`perfbench/` reads the library by name: `micro.py` imports a list of
names from the package, `trace_boot.py` wraps functions it looks up in
`cli`, `discrete`, `polynomials` and `susy`, and the checker and the
oracle read a few more.  A rename or a removal fails here, in the tests,
and not only where the benchmark next runs.
"""

import ast
from pathlib import Path

import pdemosc
from pdemosc import cli, discrete, polynomials, susy

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_micro_imports_resolve():
    tree = ast.parse((PERFBENCH / "micro.py").read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "pdemosc"
             for alias in node.names]
    assert "eigen_tridiagonal" in names
    for name in names:
        assert getattr(pdemosc, name) is not None, name


def test_trace_boot_names_resolve():
    assert callable(cli.run)
    for name in ("eigen_tridiagonal", "build_grid", "assemble_sturm_liouville",
                 "assemble_von_roos"):
        assert callable(getattr(discrete, name)), name
    for name in ("gf_polynomial", "rodrigues_polynomial"):
        assert callable(getattr(polynomials, name)), name
    assert callable(susy.Banded.__matmul__)


def test_the_polynomials_sampler_alias_runs():
    # trace_boot wraps the sampler as polynomials reaches it, an alias that
    # importing polynomials does not load
    fam = pdemosc.make_family(pdemosc.Kind.CASE1, 1.0, 0.1)
    grid = pdemosc.build_grid(fam, 200, n_max=3)
    phi = polynomials.eigenfunction_samples(fam, 3, grid)
    assert polynomials.eigenfunction_samples is susy.eigenfunction_samples
    assert abs(susy.inner_product(phi, phi, grid) - 1.0) < 1e-12


def test_checker_and_oracle_names_resolve():
    # check.py builds each family and its closed-form levels
    fam = pdemosc.make_family(pdemosc.Kind.CONSTANT, 1.0, 0.0)
    assert pdemosc.energy(fam, 2) == 2.5
    # oracle.py reads the exact coefficients of each parameterization
    for par in ("CASE1", "CASE2", "CASE3"):
        poly = pdemosc.gf_polynomial(3, getattr(pdemosc.Parameterization, par))
        assert poly.coeffs, par
