import argparse
import contextlib
import gc
import io
import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pdemosc import (Kind, PdemError, VonRoosOrdering, bound_state_count,
                     build_grid, make_family, run)
from pdemosc.cli import main, parse_args


def lines_of(capsys):
    out, err = capsys.readouterr()
    return out, err


def test_spectrum_csv(capsys):
    code = run(["spectrum", "--family", "case1", "--alpha", "1", "--lambda", "0.1",
                "--n-max", "4", "--grid-n", "1200"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    rows = out.strip().splitlines()
    assert rows[0] == "n,energy_algebraic,energy_numeric,abs_error"
    assert len(rows) == 6
    # third excited level sits at exactly alpha(2.5 - 0.1 * 3) = 2.2
    cells = rows[3].split(",")
    assert cells[0] == "2"
    assert abs(float(cells[1]) - 2.2) < 1e-12
    assert float(cells[3]) < 5e-3  # numeric route agrees at this resolution


def test_spectrum_json(capsys):
    code = run(["spectrum", "--family", "case2", "--lambda", "10", "--n-max", "3",
                "--grid-n", "400", "--format", "json"])
    out, _ = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "case2"
    assert payload["lambda"] == 10.0
    assert [lvl["n"] for lvl in payload["levels"]] == [0, 1, 2, 3]
    assert payload["grid"]["n"] == 400
    assert payload["levels"][1]["energy_algebraic"] == pytest.approx(1.4)


def test_spectrum_is_deterministic(capsys):
    argv = ["spectrum", "--family", "case3", "--lambda", "0.2", "--n-max", "5",
            "--grid-n", "500", "--format", "both"]
    assert run(argv) == 0
    first, _ = capsys.readouterr()
    assert run(argv) == 0
    second, _ = capsys.readouterr()
    assert first == second
    assert len(first) > 100


def test_spectrum_refuses_levels_past_cutoff(capsys):
    code = run(["spectrum", "--family", "case1", "--lambda", "0.1",
                "--n-max", "10", "--grid-n", "400"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "binds only 10 states" in err
    assert "not bound" in err
    assert out == ""


def test_default_n_max_respects_cutoff(capsys):
    # lam~ = 0.3 binds three levels, so the default table stops at n = 2
    code = run(["spectrum", "--family", "case1", "--lambda", "0.3",
                "--grid-n", "400", "--tail-tolerance", "1e-6"])
    out, _ = capsys.readouterr()
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 4
    assert rows[-1].startswith("2,")


@pytest.mark.parametrize("lam, bound, n_max, states", [
    ("2", 0, None, None), ("0.6666666666666666", 1, 0, 1),
    ("0.45", 2, 1, 2), ("0.3", 3, 2, 3), ("0.1", 10, 9, 5),
    ("-0.2", None, 9, 5),
])
def test_one_level_count_rule(capsys, lam, bound, n_max, states):
    # spectrum's default top level and verify's test states follow one
    # rule, the k lowest levels or every bound one (k = 10 and 5), and a
    # family that binds none is refused by both in the same words
    from pdemosc import cli, susy

    fam = make_family(Kind.CASE1, 1.0, float(lam))
    assert bound_state_count(fam) == bound
    if bound != 0:
        assert cli._n_max(fam, None) == n_max
        assert susy.state_count(fam) == states
        return
    refusals = []
    for command in ("spectrum", "verify"):
        code = run([command, "--family", "case1", "--lambda", lam,
                    "--grid-n", "400"])
        refusals.append((code, *capsys.readouterr()))
    assert refusals[0] == refusals[1]
    code, out, err = refusals[0]
    assert (code, out) == (1, "") and "binds no states" in err


def test_negative_n_max_is_refused(capsys):
    code = run(["spectrum", "--family", "constant", "--n-max", "-1",
                "--grid-n", "400"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "nonnegative" in err
    # a degree is not a level: gf_polynomials refuses it
    code = run(["polynomials", "--family", "case1", "--n-max", "-3"])
    _, err = capsys.readouterr()
    assert code == 1
    assert "nonnegative" in err


def test_usage_errors_exit_2(capsys):
    assert run(["spectrum", "--family", "case9"]) == 2
    capsys.readouterr()
    assert run(["nonsense"]) == 2
    capsys.readouterr()
    assert run(["compare-ordering", "--family", "case1", "--lambda", "0.1",
                "--grid-n", "400"]) == 2
    _, err = capsys.readouterr()
    assert "--ordering" in err
    # ordering must sum to -1
    assert run(["compare-ordering", "--family", "case1", "--lambda", "0.1",
                "--grid-n", "400", "--ordering", "0,0,0"]) == 2
    capsys.readouterr()
    # and must have three parts
    assert run(["compare-ordering", "--family", "case1", "--lambda", "0.1",
                "--grid-n", "400", "--ordering=-1,0"]) == 2
    capsys.readouterr()
    # an ambiguous prefix: one usage line, then the error
    assert run(["spectrum", "--family", "case1", "--f", "csv"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "usage: pdemosc spectrum [-h] [--flag VALUE ...]",
        "pdemosc spectrum: error: ambiguous option: --f could match "
        "--family, --format"]


def test_help_is_built_from_the_flag_table(capsys):
    assert run(["--help"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and all(f"\n  {command} " in out for command in READS)
    # -h anywhere, even after a value that is no choice
    assert run(["compare-ordering", "--family", "case9", "-h"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: pdemosc compare-ordering")
    for text in [*SHARED_FLAGS, "--family {case1,case2,case3,constant}",
                 "--format {csv,json,both}", "(default: 4000)",
                 "(default: 1e-12)", "(default: csv)", "--ordering ORDERING"]:
        assert text in out
    assert out.count("(required)") == 2


# the eight flags the subcommands share, each with a value and what it parses to
SHARED_FLAGS = {
    "--family": ("case3", "family", "case3"),
    "--alpha": ("2", "alpha", 2.0),
    "--lambda": ("0.5", "lam", 0.5),
    "--output-dir": ("out", "output_dir", "out"),
    "--n-max": ("3", "n_max", 3),
    "--grid-n": ("100", "grid_n", 100),
    "--tail-tolerance": ("1e-6", "tail_tolerance", 1e-6),
    "--format": ("json", "format", "json"),
}
FAMILY_FLAGS = ["--family", "--alpha", "--lambda", "--output-dir"]
READS = {
    "spectrum": list(SHARED_FLAGS),
    "eigenfunctions": list(SHARED_FLAGS),
    "compare-ordering": list(SHARED_FLAGS),
    "polynomials": FAMILY_FLAGS + ["--n-max"],
    "verify": FAMILY_FLAGS + ["--grid-n", "--tail-tolerance"],
}


@pytest.mark.parametrize("command", sorted(READS))
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, command):
    base = [command, "--family", "case1"]
    if command == "compare-ordering":
        base.append("--ordering=-0.5,0,-0.5")
    for flag, (text, dest, value) in SHARED_FLAGS.items():
        argv = base + [flag, text]
        if flag in READS[command]:
            assert getattr(parse_args(argv), dest) == value
        else:
            assert run(argv) == 2, flag
            out, err = capsys.readouterr()
            assert out == ""
            assert f"unrecognized arguments: {flag} {text}" in err


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the command line was read with before
    cli.parse_args: the reference the flag table is checked against."""
    def ordering_flag(text: str) -> VonRoosOrdering:
        try:
            parts = [float(p) for p in text.split(",")]
            if len(parts) != 3:
                raise ValueError
            return VonRoosOrdering(*parts)
        except (ValueError, PdemError):
            raise argparse.ArgumentTypeError(
                f"expected 'a,b,c' with a+b+c = -1, got {text!r}")

    # each subcommand takes the groups of flags it reads, and no other
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True,
                        choices=sorted(k.value for k in Kind))
    family.add_argument("--alpha", type=float, default=1.0)
    family.add_argument("--lambda", dest="lam", type=float, default=0.0,
                        help="deformation strength of the mass law")
    family.add_argument("--output-dir", default=None,
                        help="write artifacts here instead of stdout")
    levels = argparse.ArgumentParser(add_help=False)
    levels.add_argument("--n-max", type=int, default=None,
                        help="highest level/degree (default min(9, cutoff-1))")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid-n", type=int, default=4000)
    grid.add_argument("--tail-tolerance", type=float, default=1e-12)
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=["csv", "json", "both"],
                       default="csv")
    every = [family, levels, grid, table]

    parser = argparse.ArgumentParser(
        prog="pdemosc",
        description="Spectra and eigenfunctions of position-dependent-mass "
                    "nonlinear oscillators, computed algebraically and "
                    "cross-checked by finite differences.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=every,
                   help="algebraic vs numeric energy levels")
    p_eig = sub.add_parser("eigenfunctions", parents=every,
                           help="grid samples of the bound states")
    p_eig.add_argument("--source", choices=["algebraic", "numeric"],
                       default="algebraic")
    p_pol = sub.add_parser("polynomials", parents=[family, levels],
                           help="exact deformed-polynomial coefficients")
    p_pol.add_argument("--symbolic", action="store_true",
                       help="also print human-readable expanded forms")
    sub.add_parser("verify", parents=[family, grid],
                   help="run all operator-identity residual checks")
    p_cmp = sub.add_parser("compare-ordering", parents=every,
                           help="spectra under alternative kinetic orderings")
    p_cmp.add_argument("--ordering", action="append", type=ordering_flag,
                       required=True, metavar="a,b,c")
    return parser


def _parsed(parse, argv):
    """What parse makes of argv: its values in order, or the code it exits
    with."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return repr(sorted(vars(parse(argv)).items()))
        except SystemExit as exc:
            return exc.code


# the flags each subcommand takes
TAKES = {**READS, "eigenfunctions": READS["eigenfunctions"] + ["--source"],
         "polynomials": READS["polynomials"] + ["--symbolic"],
         "compare-ordering": READS["compare-ordering"] + ["--ordering"]}
_FLOATS = st.one_of(st.floats().map(repr), st.sampled_from(
    ["2", "-0.45", "-1e-3", "-inf", "nan", "1_0", "-5."]))
_INTS = st.one_of(st.integers(-10**6, 10**6).map(str),
                  st.sampled_from(["-5", "-1_000", " 7"]))
# every flag of the table, with values it takes and values it refuses;
# none is -h, and none holds a space but " 7", which int() reads
_VALUES = {
    "--family": (st.sampled_from(["case1", "case3", "constant"]),
                 st.sampled_from(["case9", "Case1", ""])),
    "--alpha": (_FLOATS, st.sampled_from(["x", "", "1,5", "--1"])),
    "--lambda": (_FLOATS, st.sampled_from(["x", "", "1e"])),
    "--output-dir": (st.text("ab./_-=", max_size=5), st.just("--out")),
    "--n-max": (_INTS, st.sampled_from(["1.5", "1e3", "x", ""])),
    "--grid-n": (_INTS, st.sampled_from(["1.5", "x"])),
    "--tail-tolerance": (_FLOATS, st.sampled_from(["1e-", "tol"])),
    "--format": (st.sampled_from(["csv", "json", "both"]),
                 st.sampled_from(["xml", "CSV"])),
    "--source": (st.sampled_from(["algebraic", "numeric"]), st.just("exact")),
    "--symbolic": (st.just(""), st.just("x")),
    "--ordering": (st.sampled_from(["-0.5,0,-0.5", "0,-1,0", "-0.7,-0.2,-0.1"]),
                   st.sampled_from(["0,0,0", "-1,0", "a,b,c", "0,-1,0,0"])),
}
_STRAYS = st.sampled_from([["--bogus"], ["--n-maxx=3"], ["--"], ["--=1"],
                           ["-x"], ["-5"], ["verify"], ["stray"]])


@st.composite
def _flag_tokens(draw, flags):
    """One of the flags, or a prefix of it, mostly with a value it takes:
    joined by "=", as the next token, or left out (--symbolic's form)."""
    flag = draw(st.sampled_from(flags))
    name = flag[:draw(st.integers(3, len(flag)))] if draw(st.booleans()) \
        else flag
    good, bad = _VALUES[flag]
    value = draw(draw(st.sampled_from([good] * 5 + [bad])))
    forms = [[name, value]] * 4 + [[f"{name}={value}"]] * 4 + [[name]]
    if flag == "--symbolic" and value == "":
        forms = [[name]] * 8 + forms
    return draw(st.sampled_from(forms))


@st.composite
def parser_argvs(draw):
    """argv of a subcommand, a misspelt one or none; its required flags,
    mostly; then flags it takes or any flag of the table, and now and
    then an unknown flag or a stray token."""
    command = draw(st.sampled_from(sorted(TAKES)))
    head = draw(st.sampled_from([[command]] * 12 + [
        ["spectra"], ["spec"], [""], []]))
    required = [["--family", "case1"]]
    if command == "compare-ordering":
        required.append(["--ordering=-0.5,0,-0.5"])
    flags = draw(st.sampled_from([TAKES[command]] * 3 + [sorted(_VALUES)]))
    items = draw(st.lists(_flag_tokens(flags), max_size=5))
    if draw(st.sampled_from([True] * 3 + [False])):
        items = required + items
    if draw(st.sampled_from([True] + [False] * 2)):
        items.insert(draw(st.integers(0, len(items))), draw(_STRAYS))
    return head + [token for item in items for token in item]


def _documented(argv):
    """argv with the value of each `--flag=--` replaced by "@@".  The flag
    table reads "--" after "=" as its text, which --output-dir takes as a
    name and every other flag refuses, and argparse reads "@@" alike;
    argparse itself stored [] for "--" there, a value of no flag's type."""
    return [t[:-2] + "@@" if t[:2] == "--" and t.partition("=")[2] == "--"
            else t for t in argv]


def _reference(argv):
    """What argparse makes of argv, an `=--` value read as its text."""
    parsed = _parsed(reference_parser().parse_args, _documented(argv))
    return parsed.replace("'@@'", "'--'") if isinstance(parsed, str) \
        else parsed


@settings(deadline=None, max_examples=500)
@given(parser_argvs())
@example(["compare-ordering", "--family", "case1", "--ordering=-0.5,0,-0.5",
          "--family", "case1", "--output-dir=--"])
def test_the_flag_table_parses_as_argparse_did(argv):
    reference = _reference(argv)
    got = _parsed(parse_args, argv)
    if reference != 2:
        assert got == reference
    elif got != 2:
        # the one relaxation: a value that begins with a single "-" is also
        # taken as the next token, where argparse took it only after "="
        joined = []
        for token in argv:
            if token[:1] == "-" != token[1:2]:
                joined[-1] += "=" + token
            else:
                joined.append(token)
        assert joined != argv
        assert _reference(joined) == got


def test_a_value_after_the_equals_sign_is_its_text(tmp_path, monkeypatch,
                                                   capsys):
    # argparse stored [] for a value of "--" after "="
    argv = ["spectrum", "--family", "constant", "--n-max", "1", "--grid-n",
            "400"]
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--output-dir=--"]) == 0
    assert [p.name for p in (tmp_path / "--").iterdir()] == ["spectrum.csv"]
    assert capsys.readouterr().out == "wrote --/spectrum.csv\n"
    assert run(argv + ["--lambda=--"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(
        "argument --lambda: invalid float value: '--'")
    assert "('lam', [])" in _parsed(reference_parser().parse_args,
                                    argv + ["--lambda=--"])


@pytest.mark.parametrize("flag, text", [
    ("--lambda", "-1e-3"), ("--alpha", "-inf"), ("--output-dir", "-out")])
def test_a_value_may_begin_with_a_minus_sign(flag, text):
    argv = ["spectrum", "--family", "case1", flag]
    assert vars(parse_args(argv + [text])) == vars(
        parse_args(argv[:-1] + [f"{flag}={text}"]))
    # argparse took such a value only after "="
    assert _parsed(reference_parser().parse_args, argv + [text]) == 2


def test_constant_family_refuses_a_deformation(capsys):
    argv = ["spectrum", "--family", "constant", "--n-max", "2", "--grid-n", "100"]
    assert run(argv + ["--lambda", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: the constant family has no deformation")
    tables = []
    for zero in (["--lambda", "0"], ["--lambda=-0.0"]):
        assert run(argv + zero) == 0
        out, err = capsys.readouterr()
        assert err == ""
        tables.append(out)
    assert tables[0] == tables[1]
    assert tables[0].splitlines()[1].startswith("0,0.5,")


def test_eigenfunctions_csv_shape(capsys):
    code = run(["eigenfunctions", "--family", "case1", "--lambda", "0.1",
                "--n-max", "2", "--grid-n", "120"])
    out, _ = capsys.readouterr()
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "x,phi_0,phi_1,phi_2"
    assert len(rows) == 121


def test_eigenfunctions_sources_agree(capsys):
    base = ["eigenfunctions", "--family", "constant", "--n-max", "0",
            "--grid-n", "900", "--format", "json"]
    assert run(base + ["--source", "algebraic"]) == 0
    alg = json.loads(capsys.readouterr()[0])
    assert run(base + ["--source", "numeric"]) == 0
    num = json.loads(capsys.readouterr()[0])
    assert alg["eigenvalues"][0] == pytest.approx(0.5, abs=1e-15)
    assert num["eigenvalues"][0] == pytest.approx(0.5, abs=1e-4)


def test_numeric_eigenfunctions_peak_memory(tmp_path, capsys):
    # the operator, its parity blocks, one level's factors and the stored
    # vectors and x column, 8 bytes a value: 2.51 MB here, set by the
    # solve, where float lists took 5.22 MB, a block vector kept next to
    # each unfolded one 3.06 MB and the writing of full columns 2.59 MB
    import tracemalloc

    argv = ["eigenfunctions", "--family", "constant", "--n-max", "2",
            "--source", "numeric", "--output-dir", str(tmp_path)]
    assert run(argv + ["--grid-n", "100"]) == 0  # the handler's imports
    tracemalloc.start()
    try:
        assert run(argv + ["--grid-n", "32000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 3.0e6


def test_numeric_eigenfunctions_csv_holds_only_the_stored_halves(
        tmp_path, capsys, monkeypatch):
    # from the table's first chunk on, the request holds x and the three
    # states as the left halves they store, the kept half of the text and
    # one chunk: 2.03 MB here, where columns of all 32000 entries held
    # 2.59 MB
    import tracemalloc

    from pdemosc import cli

    table = cli._csv_table

    def from_the_first_chunk(header, columns):
        tracemalloc.reset_peak()  # the solve is done; the writing starts
        yield from table(header, columns)

    monkeypatch.setattr(cli, "_csv_table", from_the_first_chunk)
    argv = ["eigenfunctions", "--family", "constant", "--n-max", "2",
            "--source", "numeric", "--output-dir", str(tmp_path)]
    assert run(argv + ["--grid-n", "100"]) == 0  # the handler's imports
    tracemalloc.start()
    try:
        assert run(argv + ["--grid-n", "32000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak <= 2.25e6


def test_polynomials_symbolic_and_json(capsys):
    code = run(["polynomials", "--family", "case1", "--n-max", "5",
                "--symbolic"])
    out, _ = capsys.readouterr()
    assert code == 0
    text_lines = [l for l in out.splitlines() if l.startswith("H_")]
    assert len(text_lines) == 6
    assert text_lines[0] == "H_0 = (1)"
    assert text_lines[1] == "H_1 = (2 - q)*z"
    payload = json.loads(out.splitlines()[-1])
    assert [p["degree"] for p in payload] == [0, 1, 2, 3, 4, 5]


def test_polynomials_ignore_bound_cutoff(capsys):
    # a degree is not a level: the export works past the three bound states
    code = run(["polynomials", "--family", "case1", "--lambda", "0.3",
                "--n-max", "12"])
    out, _ = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 13


def test_verify_passes_at_default_tolerances(capsys):
    code = run(["verify", "--family", "case3", "--lambda", "0.2",
                "--grid-n", "900"])
    out, _ = capsys.readouterr()
    assert code == 0
    statuses = [l for l in out.splitlines() if ": value=" in l]
    assert len(statuses) == 6
    assert all(l.endswith("PASS") for l in statuses)


def test_verify_fails_on_coarse_grid(capsys):
    # 400 points is not enough for the pinned annihilation tolerance; the
    # command reports per-residual status and exits 3
    code = run(["verify", "--family", "case1", "--lambda", "0.1",
                "--grid-n", "400"])
    out, _ = capsys.readouterr()
    assert code == 3
    assert any(l.endswith("FAIL") for l in out.splitlines())
    payload = json.loads(out.splitlines()[-1])
    assert payload["residuals"]["annihilation"]["pass"] is False


def test_verify_stays_finite_at_huge_alpha(capsys):
    # the operators are accepted at alpha = 1e100, but the residual vectors
    # square past the range of a double unless they are scaled first; the
    # tolerances scale as alpha^p, so the correct operators pass
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["verify", "--family", "constant", "--alpha", "1e100"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    payload = json.loads(out.splitlines()[-1], parse_constant=refuse)
    values = [e["value"] for e in payload["residuals"].values()]
    assert len(values) == 6 and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("argv", [
    ["--family", "constant", "--alpha", "7.359689122788897e+269"],
    ["--family", "case1", "--lambda", "0.1", "--alpha", "1e200"],
])
def test_verify_refuses_overflowing_partner_potentials_quietly(capsys, argv):
    # c·α² overflows to inf, which meets x = 0 at the centre node of an odd
    # grid: the partner potentials hold nan, and assembly must refuse them
    # in one line, with no RuntimeWarning on the way, naming the largest
    # entry (inf), as the eigensolver's refusal of the same operator does
    # for spectrum, compare-ordering and numeric eigenfunctions.  At 20001
    # nodes the nan lies in a middle block of verify's row blocks.
    for grid_n in ("17", "20001"):
        errs = []
        for command in (["verify"], ["spectrum"],
                        ["compare-ordering", "--ordering=-0.5,0,-0.5"],
                        ["eigenfunctions", "--source", "numeric"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run([*command, *argv, "--grid-n", grid_n])
            out, err = capsys.readouterr()
            assert code == 1 and out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            errs.append(err.split(",")[0])
        assert len(set(errs)) == 1, grid_n
        assert errs[0].endswith(" its largest entry is inf")


def test_verify_past_the_recurrence_divisions(monkeypatch, capsys):
    # level 4 of case1 lambda 0.222 is just under the cutoff, so its level
    # box reaches 6.2e24: of the 13 blocks of rows that walk the left half
    # of the sinh map, the three nearest the wall divide the Hermite
    # recurrence by their own powers of two, and the 13 blocks and one
    # block of the whole half agree to rounding.  The mapped grid resolves
    # these states, so every residual passes (exit 0).
    from pdemosc import susy

    argv = ["verify", "--family", "case1", "--lambda", "0.222",
            "--grid-n", "100001"]
    fam = make_family(Kind.CASE1, 1.0, 0.222)
    grid = build_grid(fam, 100001, n_max=susy.state_count(fam) - 1)
    end_block = grid.node(np.arange(1, susy.ROWS + 1))
    assert [e for _, e in susy._states_at(fam, 5, end_block)][-1] > 0
    values = []
    assert susy.ROWS < 100001
    for rows in (susy.ROWS, 100001):
        monkeypatch.setattr(susy, "ROWS", rows)
        assert run(argv) == 0
        out = capsys.readouterr()[0].splitlines()[-1]
        residuals = json.loads(out)["residuals"]
        values.append([e["value"] for e in residuals.values()])
    assert len(values[0]) == 6
    for blocked, whole in zip(*values, strict=True):
        assert math.isfinite(blocked) and math.isfinite(whole)
        assert blocked == pytest.approx(whole, rel=1e-13, abs=0.0)


def test_verify_passes_at_large_alpha(capsys):
    # tolerances are calibrated at alpha = 1 and scale as alpha^p, so
    # correct operators pass at alpha = 100 (an absolute 5e-3 failed them)
    code = run(["verify", "--family", "constant", "--alpha", "100"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert all(line.endswith("PASS") for line in lines[:6])
    assert lines[0].startswith("factorization: ") and "tolerance=0.5 " in lines[0]
    payload = json.loads(lines[-1])
    for entry in payload["residuals"].values():
        assert entry["pass"] == (entry["value"] <= entry["tolerance"])


def test_output_dir_writes_files(tmp_path, capsys):
    code = run(["spectrum", "--family", "case1", "--lambda", "0.1",
                "--n-max", "2", "--grid-n", "400", "--format", "both",
                "--output-dir", str(tmp_path)])
    out, _ = capsys.readouterr()
    assert code == 0
    csv_file = tmp_path / "spectrum.csv"
    json_file = tmp_path / "spectrum.json"
    assert csv_file.exists() and json_file.exists()
    assert f"wrote {csv_file}" in out
    assert csv_file.read_text().startswith("n,energy_algebraic")
    json.loads(json_file.read_text())


@pytest.mark.parametrize("where", ["file", "under-file", "dir-at-artifact"])
def test_unwritable_output_dir_is_refused(tmp_path, capsys, where):
    afile = tmp_path / "afile"
    afile.write_text("")
    out_dir = {"file": afile, "under-file": afile / "sub",
               "dir-at-artifact": tmp_path / "out"}[where]
    if where == "dir-at-artifact":
        (out_dir / "spectrum.csv").mkdir(parents=True)
    code = run(["spectrum", "--family", "case1", "--lambda", "0.1",
                "--n-max", "2", "--grid-n", "400", "--output-dir", str(out_dir)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(out_dir) in err
    assert afile.read_text() == ""


def test_compare_ordering_output(capsys):
    # a value may open with a minus sign in either form, "--ordering v"
    # or "--ordering=v"
    code = run(["compare-ordering", "--family", "case1", "--lambda", "0.3",
                "--grid-n", "500", "--tail-tolerance", "1e-6", "--n-max", "1",
                "--ordering=-0.5,0,-0.5", "--ordering=0,-1,0",
                "--format", "both"])
    out, _ = capsys.readouterr()
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == ("n,energy_symmetric,energy_-0.5_0_-0.5,dev_-0.5_0_-0.5,"
                       "energy_0_-1_0,dev_0_-1_0")
    cells = rows[1].split(",")
    # the alternative arrangement shifts the ground level; (0,-1,0) does not
    assert abs(float(cells[3])) > 0.05
    assert abs(float(cells[5])) < 1e-10
    # the JSON holds each ordering's levels and their deviations, no more
    payload = json.loads(rows[-1])
    for entry, cell in zip(payload["orderings"], (cells[2], cells[4])):
        assert list(entry) == ["a", "b", "c", "eigenvalues",
                               "deviation_from_symmetric"]
        assert entry["eigenvalues"][0] == float(cell)


@pytest.mark.parametrize("family", [
    ["--family", "case1", "--lambda", "0.1"],
    ["--family", "case3", "--lambda=-0.4"],
], ids=["case1-sinh-mapped", "case3-compact"])
def test_spectrum_and_compare_ordering_share_one_solve(capsys, family):
    # at the same flags spectrum's numeric levels are compare-ordering's
    # symmetric ones, and an ordering's columns and JSON entry are those it
    # gets alone, whatever ordering comes before it
    flags = family + ["--grid-n", "1000", "--format", "both"]
    orderings = ["--ordering=-0.5,0,-0.5", "--ordering=-0.25,-0.5,-0.25"]

    def request(argv):
        assert run(argv + flags) == 0
        *rows, last = capsys.readouterr()[0].splitlines()
        columns = zip(*(row.split(",") for row in rows))
        return {c[0]: c[1:] for c in columns}, json.loads(last)

    spectrum_csv, spectrum_json = request(["spectrum"])
    both_csv, both_json = request(["compare-ordering", *orderings])
    assert both_csv["energy_symmetric"] == spectrum_csv["energy_numeric"]
    assert both_json["symmetric"] == [
        level["energy_numeric"] for level in spectrum_json["levels"]]
    assert both_json["grid"] == spectrum_json["grid"]
    for i, ordering in enumerate(orderings):
        alone_csv, alone_json = request(["compare-ordering", ordering])
        assert len(alone_csv) == 4
        assert alone_csv == {k: both_csv[k] for k in alone_csv}
        assert alone_json["orderings"] == [both_json["orderings"][i]]
        assert alone_json["symmetric"] == both_json["symmetric"]


@pytest.mark.parametrize("grid_n", [500, 501])
@pytest.mark.parametrize("command", [
    ["spectrum"],
    ["eigenfunctions", "--source", "algebraic"],
    ["eigenfunctions", "--source", "numeric"],
    ["compare-ordering", "--ordering=-0.5,0,-0.5"],
], ids=["spectrum", "eigenfunctions-algebraic", "eigenfunctions-numeric",
        "compare-ordering"])
def test_every_json_grid_is_the_box_asked_for(capsys, command, grid_n):
    # a grid is (hi, n, h) on (−hi, hi): its JSON lo is −hi bit for bit,
    # hi is build_grid's, and n is the --grid-n asked for
    assert run([*command, "--family", "case3", "--lambda", "0.3", "--n-max",
                "2", "--grid-n", str(grid_n), "--format", "json"]) == 0
    grid = json.loads(capsys.readouterr()[0])["grid"]
    want = build_grid(make_family(Kind.CASE3, 1.0, 0.3), grid_n)
    assert list(grid) == ["lo", "hi", "n"]
    assert grid["hi"].hex() == want.hi.hex()
    assert grid["lo"].hex() == (-grid["hi"]).hex()
    assert grid["n"] == grid_n


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pdemosc", "polynomials", "--family", "case2",
         "--lambda", "5", "--n-max", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload[1]["degree"] == 1


@pytest.mark.parametrize("argv, code", [
    (["spectrum", "--family", "case1", "--lambda", "0.1", "--n-max", "0",
      "--grid-n", "200"], 0),
    (["spectrum", "--family", "case1", "--lambda", "10"], 1),
    (["spectrum", "--family", "case1", "--bogus", "1"], 2),
])
def test_main_exits_with_the_code_of_run_and_freezes_the_collector(
        monkeypatch, capsys, argv, code):
    assert run(argv) == code
    monkeypatch.setattr(sys, "argv", ["pdemosc", *argv])
    assert gc.get_freeze_count() == 0
    try:
        with pytest.raises(SystemExit) as exit_:
            main()
        assert exit_.value.code == code
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--family", "case1", "--lambda", "0.1", "--n-max", "2",
     "--grid-n", "500"],
    # odd N: the state columns are written mirrored
    ["eigenfunctions", "--family", "constant", "--n-max", "2", "--grid-n",
     "501", "--source", "numeric"],
])
def test_module_entry_writes_what_run_writes(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()[0]
    proc = subprocess.run([sys.executable, "-m", "pdemosc", *argv],
                          capture_output=True)
    assert (proc.returncode, proc.stdout) == (code, out.encode())


# main freezes the collector rather than leaving by os._exit, which would
# skip the handlers that run at exit, cProfile's report among them
def test_exit_handlers_run_after_main():
    script = ("import atexit, sys; from pdemosc.cli import main; "
              "atexit.register(print, 'handler ran'); "
              "sys.argv[1:] = ['spectrum', '--family', 'case1', '--lambda', "
              "'0.1', '--n-max', '0', '--grid-n', '200']; main()")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert proc.stdout.endswith("\nhandler ran\n")


def test_a_profiled_request_prints_its_report():
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "pdemosc", "spectrum",
         "--family", "case1", "--lambda", "0.1", "--n-max", "2", "--grid-n",
         "500"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,energy_algebraic")
    assert " function calls " in proc.stdout


def test_closed_stdout_ends_in_one_error_line():
    # 2.5 MB of CSV fill the pipe long before the table ends, so the reader
    # has closed it by the time a later chunk is written
    proc = subprocess.Popen(
        [sys.executable, "-m", "pdemosc", "eigenfunctions", "--family",
         "constant", "--n-max", "5", "--grid-n", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline().startswith("x,phi_0")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == "error: stdout was closed before the output ended\n"


# the benchmark's edge probes plus the other routes to a family that binds
# nothing: each must end in exit 1 with a one-line reason, never a traceback
@pytest.mark.parametrize("argv, needle", [
    (["spectrum", "--family", "case1", "--lambda", "0.1", "--n-max", "12"],
     "binds only 10 states"),
    (["spectrum", "--family", "case1", "--lambda", "10"], "binds no states"),
    (["spectrum", "--family", "case2", "--lambda", "1e-3"], "binds no states"),
    (["polynomials", "--family", "case1", "--lambda", "10"], "binds no states"),
    (["verify", "--family", "case2", "--lambda", "1e-3"], "binds no states"),
    (["spectrum", "--family", "case1", "--lambda", "1.9",
      "--tail-tolerance", "1e-300"], "tail tolerance"),
    # a compact domain far wider than the ground state: no node resolves it
    (["spectrum", "--family", "case1", "--lambda=-1e-300"], "grid spacing"),
    (["compare-ordering", "--family", "case1", "--lambda=-1e-300",
      "--ordering=-0.5,0,-0.5"], "grid spacing"),
    (["eigenfunctions", "--family", "case1", "--lambda=-1e-300",
      "--source", "numeric"], "grid spacing"),
    (["eigenfunctions", "--family", "case1", "--lambda=-1e-300"],
     "grid spacing"),
    (["verify", "--family", "case1", "--lambda=-1e-300"], "grid spacing"),
    # operator entries whose squares leave the range of a double
    (["verify", "--family", "case2", "--lambda=-1e-300"], "overflows"),
    (["verify", "--family", "constant", "--alpha", "1e300"], "overflows"),
    (["spectrum", "--family", "constant", "--alpha", "1e150"], "overflows"),
    (["spectrum", "--family", "case2", "--lambda=-1e-300"], "overflows"),
    (["compare-ordering", "--family", "case2", "--lambda=-1e-300",
      "--ordering=-0.5,0,-0.5"], "overflows"),
    (["eigenfunctions", "--family", "case2", "--lambda=-1e-300",
      "--source", "numeric"], "overflows"),
    # here the potential and the stencil overflow before any check sees them
    (["spectrum", "--family", "constant", "--alpha", "1e306"], "overflows"),
    # q is subnormal, so the run answers as constant at alpha = 1.7e308
    (["verify", "--family", "case1", "--lambda", "0.1", "--alpha", "1.7e308"],
     "overflows"),
    # operator entries whose squares fall below the smallest normal double
    (["spectrum", "--family", "constant", "--alpha", "1e-200"], "underflows"),
    (["compare-ordering", "--family", "constant", "--alpha", "1e-200",
      "--ordering=-0.5,0,-0.5"], "underflows"),
    (["eigenfunctions", "--family", "constant", "--alpha", "1e-200",
      "--source", "numeric"], "underflows"),
    # c·α·α in the potentials is subnormal here; at 1e-300 every residual
    # underflows to 0
    (["verify", "--family", "constant", "--alpha", "1e-200"], "underflows"),
    (["verify", "--family", "constant", "--alpha", "1e-300"], "underflows"),
    # more levels than the grid has rows
    (["spectrum", "--family", "constant", "--n-max", "20", "--grid-n", "17"],
     "asked for 21 eigenvalues of an operator with 17 rows"),
    # lambda is subnormal, so s = 1/lambda overflows
    (["spectrum", "--family", "case2", "--lambda", "5e-324"], "out of range"),
    # no operator is built, but E_2 = 2.5·alpha leaves the range of a double
    (["eigenfunctions", "--family", "constant", "--alpha", "1e308",
      "--n-max", "2", "--grid-n", "20", "--format", "json"], "E_2 is inf"),
    # c·α overflows, so the box is 0 wide: the centre node of an odd grid
    # sits on its edge, and no node lies inside
    (["spectrum", "--family", "case3", "--lambda", "0.2", "--alpha", "1e308",
      "--grid-n", "101"], "leaves 0 of 101 nodes"),
    # at a subnormal alpha, q = s/(c·alpha) is -inf: the closed-form
    # recurrence would fill the states with NaN
    (["eigenfunctions", "--family", "case1", "--alpha", "5e-324",
      "--lambda=-1", "--grid-n", "16"], "q = s/(c*alpha) = -inf leaves"),
    (["verify", "--family", "case3", "--alpha", "5e-324", "--lambda", "1",
      "--grid-n", "17"], "q = s/(c*alpha) = -inf leaves"),
    # a subnormal s < 0 walls the domain at 4.5e161, and a subnormal alpha
    # puts every node in the box, but x² overflows there
    (["eigenfunctions", "--family", "case1", "--alpha", "5e-324",
      "--lambda=-5e-324", "--grid-n", "16"],
     "or at |x| >= 1.3407807929942597e+154"),
    (["verify", "--family", "case1", "--alpha", "5e-324", "--lambda=-5e-324",
      "--grid-n", "906"], "or at |x| >= 1.3407807929942597e+154"),
    # q = s/(c·alpha) is −3.4e306: H_9 overflows at the outer nodes, and
    # its samples would be NaN
    (["eigenfunctions", "--family", "case1", "--alpha",
      "1.4242012018100228e-169", "--lambda=-4.860610657265618e+137",
      "--n-max", "38", "--grid-n", "17"],
     "level 9 leaves the range of a double"),
], ids=["past-cutoff", "case1-lam10", "case2-lam1e-3", "polynomials-lam10",
        "verify-lam1e-3", "box-overflow", "unresolved-spectrum",
        "unresolved-compare", "unresolved-numeric", "unresolved-algebraic",
        "unresolved-verify", "overflow-verify-case2", "overflow-verify-alpha",
        "overflow-spectrum-alpha", "overflow-spectrum-case2",
        "overflow-compare", "overflow-numeric", "overflow-potential",
        "overflow-subnormal-q", "underflow-spectrum", "underflow-compare",
        "underflow-numeric", "underflow-verify", "underflow-verify-zero",
        "more-levels-than-rows", "subnormal-lambda", "overflow-energy",
        "empty-compact-box", "infinite-deformation-eigenfunctions",
        "infinite-deformation-verify", "overflowing-domain-eigenfunctions",
        "overflowing-domain-verify", "overflowing-state"])
def test_edge_requests_are_refused(capsys, argv, needle):
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error:") and needle in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, words", [
    # verify runs no eigensolver; it names the largest entry it checks
    (["verify", "--family", "constant", "--alpha", "1e-300", "--grid-n", "17"],
     "underflows: its largest entry is only 9.31e-300, whose square"),
    # the eigensolver's rule is on the infinity norm of the operator, here
    # on the sinh-mapped grid of spectrum
    (["spectrum", "--family", "constant", "--alpha", "1e-200"],
     "underflows: its infinity norm is only 1.07e-194, and the eigensolver"),
    # both commands say an overflow in one text: an entry squares past a double
    (["verify", "--family", "constant", "--alpha", "7.359689122788897e+269",
      "--grid-n", "17"], "overflows: its largest entry is inf, whose square"),
    (["spectrum", "--family", "constant", "--alpha", "1e150"],
     "overflows: its largest entry is 5.34e+155, whose square"),
], ids=["verify-underflow", "spectrum-underflow", "verify-overflow",
        "spectrum-overflow"])
def test_refusals_name_what_they_measure(capsys, argv, words):
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: the discretized Hamiltonian " + words)
    assert err.count("\n") == 1
    assert ("eigensolver" in err) == (argv[0] == "spectrum"
                                      and "underflows" in words)


def test_small_alpha_spectrum_scales_with_alpha(capsys):
    # the constant family's operator scales with alpha, and the certification
    # tolerance is relative to its norm, so E_n/alpha is the same at every
    # alpha; an absolute tolerance answered 5e-13 for E_0 = 5e-15 at 1e-14
    argv = ["spectrum", "--family", "constant", "--n-max", "4", "--grid-n", "1000"]
    levels = {}
    for alpha in ("1", "1e-14", "1e-150"):
        assert run(argv + ["--alpha", alpha]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        levels[alpha] = [float(row.split(",")[2]) / float(alpha)
                         for row in out.strip().splitlines()[1:]]
    for alpha in ("1e-14", "1e-150"):
        assert levels[alpha] == pytest.approx(levels["1"], rel=1e-9, abs=0.0)


def test_diagonal_past_the_root_of_the_largest_double_is_solved(capsys):
    # at alpha = 1e153 on 16 nodes the diagonal reaches 1.48e154, past
    # sqrt(DBL_MAX) = 1.34e154, and the couplings 4.8e153: the eigensolver
    # squares only the couplings, so it answers alpha times the alpha = 1
    # level, while verify, which squares every entry, refuses its H₋
    argv = ["--family", "constant", "--n-max", "0", "--grid-n", "16"]
    levels = []
    for alpha in ("1", "1e153"):
        assert run(["spectrum", *argv, "--alpha", alpha]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        levels.append(float(out.splitlines()[1].split(",")[2]) / float(alpha))
    assert levels[1] == pytest.approx(levels[0], rel=1e-12, abs=0.0)
    assert run(["verify", *argv[:2], "--grid-n", "16", "--alpha", "1e153"]) == 1
    assert "overflows: its largest entry is 1.78e+154," in capsys.readouterr().err


def test_overflowing_alpha_still_samples_algebraically(capsys):
    # no operator is built, so only the discretizations refuse alpha = 1e300
    code = run(["eigenfunctions", "--family", "constant", "--alpha", "1e300",
                "--n-max", "2", "--grid-n", "400"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert "nan" not in out and "inf" not in out


def test_high_degree_eigenfunctions_are_normalized(capsys):
    code = run(["eigenfunctions", "--family", "constant", "--n-max", "200",
                "--grid-n", "2000"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    rows = out.strip().splitlines()
    assert rows[0].split(",")[-1] == "phi_200"
    table = np.array([[float(c) for c in row.split(",")] for row in rows[1:]])
    h = (table[-1, 0] - table[0, 0]) / (len(table) - 1)
    norms = h * np.sum(table[:, 1:] ** 2, axis=0)
    assert np.all(np.abs(norms - 1.0) < 1e-12)


@pytest.mark.parametrize("command", ["spectrum", "eigenfunctions"])
def test_tiny_lambda_matches_constant(capsys, command):
    base = [command, "--n-max", "3", "--grid-n", "400", "--format", "json"]
    assert run(base + ["--family", "case1", "--lambda", "1e-300"]) == 0
    tiny = json.loads(capsys.readouterr()[0])
    assert run(base + ["--family", "constant"]) == 0
    ref = json.loads(capsys.readouterr()[0])
    assert tiny["grid"] == pytest.approx(ref["grid"], rel=1e-14)
    if command == "spectrum":
        for got, want in zip(tiny["levels"], ref["levels"]):
            assert got["energy_algebraic"] == want["energy_algebraic"]
            assert got["energy_numeric"] == pytest.approx(
                want["energy_numeric"], rel=1e-12)
    else:
        assert tiny["eigenvalues"] == ref["eigenvalues"]
    base[-1] = "csv"
    assert run(base + ["--family", "case1", "--lambda", "1e-300"]) == 0
    tiny_rows = capsys.readouterr()[0].splitlines()[1:]
    assert run(base + ["--family", "constant"]) == 0
    ref_rows = capsys.readouterr()[0].splitlines()[1:]
    got = np.array([[float(c) for c in row.split(",")] for row in tiny_rows])
    want = np.array([[float(c) for c in row.split(",")] for row in ref_rows])
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


# lambda/alpha = 1e-310 is a subnormal q whose reciprocal overflows: every
# level a double can index is bound, so these runs answer as the constant
# family at the same alpha instead of ending in a traceback
@pytest.mark.parametrize("argv", [
    ["spectrum"], ["eigenfunctions"],
    ["compare-ordering", "--ordering=-0.5,0,-0.5"], ["verify"],
], ids=["spectrum", "eigenfunctions", "compare-ordering", "verify"])
def test_subnormal_deformation_answers_as_constant(capsys, argv):
    base = argv + ["--alpha", "1e10", "--grid-n", "400"]
    if argv[0] != "verify":
        base += ["--n-max", "3", "--format", "json"]
    code = run(base + ["--family", "case1", "--lambda", "1e-300"])
    out, err = capsys.readouterr()
    assert err == "" and code == 0
    tiny = json.loads(out.splitlines()[-1])
    assert run(base + ["--family", "constant"]) == code
    ref = json.loads(capsys.readouterr()[0].splitlines()[-1])
    if argv[0] == "verify":
        # on the level box every residual passes, as the constant family's
        for name, entry in ref["residuals"].items():
            assert tiny["residuals"][name]["pass"] == entry["pass"]
            assert tiny["residuals"][name]["value"] == pytest.approx(
                entry["value"], rel=1e-6)
        return
    assert tiny["grid"] == pytest.approx(ref["grid"], rel=1e-14)
    # each numeric eigenvalue is certified to 1e-12·‖T‖∞ ≈ 1e-12·2/h² ≈ 15,
    # under 3e-9 of E_0 = 5e9
    if argv[0] == "spectrum":
        for got, want in zip(tiny["levels"], ref["levels"]):
            assert got["energy_algebraic"] == want["energy_algebraic"]
            assert got["energy_numeric"] == pytest.approx(
                want["energy_numeric"], rel=1e-8)
    elif argv[0] == "compare-ordering":
        assert tiny["symmetric"] == pytest.approx(ref["symmetric"], rel=1e-8)
        assert tiny["orderings"][0]["eigenvalues"] == pytest.approx(
            ref["orderings"][0]["eigenvalues"], rel=1e-8)
    else:
        assert tiny["eigenvalues"] == ref["eigenvalues"]


def test_decimal_ordering_is_accepted(capsys):
    code = run(["compare-ordering", "--family", "case1", "--lambda", "0.1",
                "--grid-n", "400", "--n-max", "1", "--ordering=-0.7,-0.2,-0.1"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert out.splitlines()[0] == (
        "n,energy_symmetric,energy_-0.7_-0.2_-0.1,dev_-0.7_-0.2_-0.1")


def _csv_columns(text):
    rows = [[float(c) for c in line.split(",")]
            for line in text.strip().splitlines()[1:]]
    return [list(col) for col in zip(*rows)]


def test_numeric_eigenfunctions_carry_the_closed_form_signs(capsys):
    # column by column, sign included: odd states too have their right peak
    # positive in both sources, and the rest is discretization error
    base = ["eigenfunctions", "--family", "case1", "--lambda=-0.2",
            "--n-max", "3", "--grid-n", "501"]
    assert run(base + ["--source", "algebraic"]) == 0
    alg = _csv_columns(capsys.readouterr()[0])
    assert run(base + ["--source", "numeric"]) == 0
    num = _csv_columns(capsys.readouterr()[0])
    assert alg[0] == num[0]
    for n, (a, v) in enumerate(zip(alg[1:], num[1:])):
        top = max(map(abs, a))
        assert max(abs(x - y) for x, y in zip(a, v)) < 1e-3 * top, n


def test_json_only_eigenfunctions_sample_nothing(capsys, monkeypatch):
    # the artifact holds only eigenvalues and the grid; the numeric ones are
    # those of the eigenpair solve started at the closed-form energies, as
    # the CSV path starts it, bit for bit
    from pdemosc import Kind, build_grid, discrete, energy, make_family, sampling
    fam = make_family(Kind.CASE3, 1.0, 0.2)
    grid = build_grid(fam, 400)
    algebraic = [energy(fam, n) for n in range(4)]
    values, _ = discrete.eigenpair_lists(discrete.assemble_lists(fam, grid),
                                         4, grid.h, algebraic)
    want = {"algebraic": algebraic, "numeric": values}

    def refuse(*args):
        raise AssertionError("sampled for a JSON-only artifact")
    monkeypatch.setattr(sampling, "eigenfunction_lists", refuse)
    monkeypatch.setattr(discrete, "eigenpair_lists", refuse)
    for source in ("algebraic", "numeric"):
        argv = ["eigenfunctions", "--family", "case3", "--lambda", "0.2",
                "--n-max", "3", "--grid-n", "400", "--format", "json",
                "--source", source]
        assert run(argv) == 0
        assert json.loads(capsys.readouterr()[0])["eigenvalues"] == want[source]


@pytest.mark.parametrize("command", [
    ["spectrum"], ["compare-ordering", "--ordering=-0.7,-0.2,-0.1"],
    ["eigenfunctions", "--source", "numeric", "--format", "json"],
    ["eigenfunctions", "--source", "numeric"],
], ids=["spectrum", "compare-ordering", "eigenfunctions-json",
        "eigenfunctions-csv"])
def test_predictions_past_a_double_leave_the_refusal_to_the_solver(capsys,
                                                                  command):
    # E_1 = 1.5·alpha leaves the range of a double here; the solve starts
    # without predictions, so the operator's overflow is refused, as it
    # was before the solver took them
    argv = command + ["--family", "constant", "--alpha", "1.7e308",
                      "--n-max", "2", "--grid-n", "200"]
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: the discretized Hamiltonian overflows")


# the whole admissible domain and its edges: each request ends in exit 0
# with finite numbers, in exit 1 with one error line, or, from verify
# only, in exit 3; never in a traceback or a warning
EDGE_ALPHAS = [5e-324, 1e-300, 1e-200, 1.0, 1e150, 7.359689122788897e+269,
               1e300, 1.7e308]
EDGE_LAMBDAS = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 2.0, -2.0]


def _decade(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# dyadic exponents a, c in {−3, −2.75, …, 3}: b = −1 − a − c is exact
_DYADIC = st.integers(-12, 12).map(lambda k: k / 4)


@st.composite
def _orderings(draw):
    a, c = draw(_DYADIC), draw(_DYADIC)
    return f"--ordering={a!r},{-1.0 - a - c!r},{c!r}"


@st.composite
def cli_requests(draw):
    command = draw(st.sampled_from(["spectrum", "eigenfunctions", "polynomials",
                                    "verify", "compare-ordering"]))
    family = draw(st.sampled_from(["case1", "case2", "case3", "constant"]))
    alpha = draw(st.one_of(_decade(-300, 300), st.sampled_from(EDGE_ALPHAS)))
    # Case 2 and Case 3 admit any λ ≠ 0, so its magnitude spans every decade
    lam = draw(st.one_of(st.floats(-2.0, 2.0), st.sampled_from(EDGE_LAMBDAS),
                         _decade(-300, 300),
                         _decade(-300, 300).map(lambda v: -v)))
    if family == "constant" and draw(st.booleans()):
        lam = 0.0  # the only deformation it does not refuse
    argv = [command, "--family", family, "--alpha", repr(alpha),
            f"--lambda={lam!r}"]
    if command != "verify" and draw(st.booleans()):
        top = 60
        try:
            count = bound_state_count(make_family(Kind(family), alpha, lam))
        except PdemError:
            count = None
        if count and count <= 61 and draw(st.booleans()):
            # s > 0: a bound level, up to the cutoff − 1, whose box the
            # mapped grid widens the most
            top = count - 1
        argv += ["--n-max", str(draw(st.integers(0, top)))]
    if command != "polynomials":
        # every decade of the tail, and both of its ends
        tail = draw(st.one_of(_decade(-300, -6), st.sampled_from([1e-300, 1e-6])))
        argv += ["--grid-n", str(draw(st.integers(16, 1000))),
                 "--tail-tolerance", repr(tail)]
    if command in ("spectrum", "eigenfunctions", "compare-ordering"):
        argv += ["--format", draw(st.sampled_from(["csv", "json", "both"]))]
    if command == "eigenfunctions":
        argv += ["--source", draw(st.sampled_from(["algebraic", "numeric"]))]
    if command == "polynomials" and draw(st.booleans()):
        argv.append("--symbolic")
    if command == "compare-ordering":
        argv.append(draw(st.one_of(
            st.sampled_from(["--ordering=-0.5,0,-0.5", "--ordering=0,0,-1",
                             "--ordering=-0.7,-0.2,-0.1"]),
            _orderings())))
    return argv


@settings(deadline=None, max_examples=300)
@given(cli_requests())
def test_every_request_ends_in_a_documented_way(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "" and not re.search(r"\b(nan|inf)\b", out), argv
    elif code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert out == "", argv
    else:
        assert (code, argv[0]) == (3, "verify"), argv


# each subcommand's flags past the family, and the files it writes
ARTIFACTS = {
    "spectrum": (["--n-max", "2", "--grid-n", "400", "--format", "both"],
                 ["spectrum.csv", "spectrum.json"]),
    "eigenfunctions": (["--n-max", "2", "--grid-n", "400", "--format", "both"],
                       ["eigenfunctions.csv", "eigenfunctions.json"]),
    "polynomials": (["--n-max", "3"], ["polynomials.json"]),
    "verify": (["--grid-n", "900"], ["verify.json"]),
    "compare-ordering": (["--n-max", "2", "--grid-n", "400", "--format", "both",
                          "--ordering=-0.5,0,-0.5"],
                         ["compare_ordering.csv", "compare_ordering.json"]),
}


@pytest.mark.parametrize("command", ARTIFACTS)
def test_artifacts_are_named_after_the_subcommand(tmp_path, capsys, command):
    flags, names = ARTIFACTS[command]
    code = run([command, *flags, "--family", "case3", "--lambda", "0.2",
                "--output-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert f"wrote {tmp_path / name}" in out


def test_constant_polynomials_print_what_q_is(capsys):
    # the constant family reads the Case 1 polynomials, so q is lambda/alpha
    code = run(["polynomials", "--family", "constant", "--n-max", "1",
                "--symbolic"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.splitlines()[0] == \
        "# family constant: q = lambda/alpha; z is the scaled coordinate"
