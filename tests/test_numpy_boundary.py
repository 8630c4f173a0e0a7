"""The numpy boundary: which commands run without numpy, and the numpy twin
of the float stencil that `verify` assembles."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import pdemosc
from pdemosc import (
    InvalidCountError,
    InvalidLambdaError,
    Kind,
    VonRoosOrdering,
    assemble_sturm_liouville,
    assemble_von_roos,
    build_grid,
    make_family,
    run,
)
from pdemosc.discrete import assemble_lists
from pdemosc.susy import (
    _band_extent,
    _block_hamiltonians,
    _nodes_between,
    _require_representable,
)

# every command that must finish with numpy unimportable, refusals included
NUMPY_FREE = [
    ["spectrum", "--family", "case1", "--lambda", "0.1", "--grid-n", "600",
     "--format", "both"],
    ["spectrum", "--family", "case2", "--lambda", "10", "--grid-n", "600"],
    ["spectrum", "--family", "case3", "--lambda", "0.4", "--grid-n", "600",
     "--format", "json"],
    ["spectrum", "--family", "constant", "--n-max", "12", "--grid-n", "600"],
    ["compare-ordering", "--family", "case3", "--lambda", "0.3", "--grid-n",
     "500", "--n-max", "3", "--format", "both", "--ordering=-0.5,0,-0.5",
     "--ordering=-0.7,-0.2,-0.1"],
    ["eigenfunctions", "--family", "case1", "--lambda=-0.2", "--grid-n", "300",
     "--n-max", "2", "--source", "numeric", "--format", "both"],
    ["polynomials", "--family", "case2", "--lambda", "5", "--n-max", "12"],
    ["polynomials", "--family", "case3", "--lambda", "0.5", "--n-max", "8",
     "--symbolic"],
    # algebraic samples on an even and an odd grid of every family
    *[["eigenfunctions", "--family", family, f"--lambda={lam}", "--grid-n",
       grid_n, "--n-max", "4", "--format", "both"]
      for family, lam in (("case1", "0.1"), ("case2", "-5"), ("case3", "0.4"),
                          ("constant", "0"))
      for grid_n in ("300", "301")],
    ["spectrum", "--family", "case1", "--lambda", "0.1", "--n-max", "12"],
    ["spectrum", "--family", "case1", "--lambda", "10"],
    ["spectrum", "--family", "case2", "--lambda", "1e-3"],
    ["spectrum", "--family", "constant", "--alpha", "1e306"],
]

_BLOCKED_RUNS = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from pdemosc.cli import run
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_commands_run_without_numpy():
    src = os.path.dirname(os.path.dirname(pdemosc.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_RUNS, json.dumps(NUMPY_FREE)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout)
    for argv, got in zip(NUMPY_FREE, blocked):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert got == [code, out.getvalue(), err.getvalue()], argv
    assert [code for code, _, _ in blocked] == [0] * 16 + [1] * 4


def test_spectrum_request_does_not_import_dataclasses():
    # `import dataclasses` costs several ms of every request process, and
    # `fractions` a few more: no request loads the one, and no exact
    # polynomial request the other
    src = os.path.dirname(os.path.dirname(pdemosc.__file__))
    requests = [
        (["spectrum", "--family", "case1", "--lambda", "0.1", "--grid-n", "600"],
         ["dataclasses"]),
        (["polynomials", "--family", "case1", "--lambda", "0.1", "--n-max", "40"],
         ["dataclasses", "fractions"]),
        (["polynomials", "--family", "case3", "--lambda", "0.5", "--n-max", "40",
          "--symbolic"], ["dataclasses", "fractions"]),
        (["verify", "--family", "case3", "--lambda", "0.2", "--grid-n", "600"],
         ["dataclasses"]),
    ]
    for argv, absent in requests:
        code = ("import contextlib, io, sys\n"
                "from pdemosc.cli import run\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = run({argv!r})\n"
                f"print(code, *[m in sys.modules for m in {absent!r}])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.stdout.split() == ["0"] + ["False"] * len(absent), \
            (argv, proc.stderr)


# the admissible ranges of each family, kept to grids that resolve the
# ground state: compact domains are drawn away from their wide limit
LAMBDAS = {
    Kind.CASE1: st.one_of(st.floats(0.01, 1.9), st.floats(-0.5, -0.05)),
    Kind.CASE2: st.one_of(st.floats(0.6, 50.0), st.floats(-20.0, -2.0)),
    Kind.CASE3: st.one_of(st.floats(0.2, 1.5), st.floats(-1.5, -0.2)),
    Kind.CONSTANT: st.just(0.0),
}


@st.composite
def families_on_grids(draw):
    kind = draw(st.sampled_from(list(Kind)))
    fam = make_family(kind, draw(st.floats(0.5, 2.0)), draw(LAMBDAS[kind]))
    try:
        return fam, build_grid(fam, draw(st.integers(16, 3000)))
    except InvalidCountError:  # a coarse grid that misses the ground state
        assume(False)


def whole_grid_hamiltonian(fam, grid):
    """verify's bands of H on one block of the whole grid, refused as
    verify refuses them."""
    x = _nodes_between(grid, 0, grid.n)
    (_, _, diag), off = _block_hamiltonians(fam, grid, x, 0, grid.n)
    _require_representable(_band_extent(diag, off, (math.nan, False)))
    return diag, off


@settings(deadline=None, max_examples=150)
@given(families_on_grids())
def test_numpy_stencil_is_the_float_stencil_bit_for_bit(case):
    fam, grid = case
    try:
        floats = assemble_lists(fam, grid)
    except InvalidLambdaError:
        with pytest.raises(InvalidLambdaError):
            whole_grid_hamiltonian(fam, grid)
        return
    diag, off = whole_grid_hamiltonian(fam, grid)

    def bits(values):
        return [float.hex(v) for v in values]
    assert bits(diag.tolist()) == bits(floats.diag)
    assert bits(off.tolist()) == bits(floats.offdiag)
    # build_grid's box is centred at 0, so the bands mirror exactly
    assert floats.diag == floats.diag[::-1]
    assert floats.offdiag == floats.offdiag[::-1]


def test_public_assemblers_hold_arrays_of_the_float_entries():
    fam = make_family(Kind.CASE1, 1.3, 0.2)
    grid = build_grid(fam, 500)
    bk = VonRoosOrdering(-0.5, -0.25, -0.25)
    for T, floats in ((assemble_sturm_liouville(fam, grid),
                       assemble_lists(fam, grid)),
                      (assemble_von_roos(fam, bk, grid),
                       assemble_lists(fam, grid, bk))):
        assert isinstance(T.diag, np.ndarray)
        assert isinstance(T.offdiag, np.ndarray)
        assert T.diag.tolist() == floats.diag
        assert T.offdiag.tolist() == floats.offdiag
