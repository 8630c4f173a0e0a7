"""Command-line front-end.

Subcommands: spectrum, eigenfunctions, polynomials, verify, compare-ordering.
All numbers are serialized with 17 significant digits so doubles round-trip
exactly and repeated runs are byte-identical.  Exit codes: 0 success,
1 computation error, 2 usage error, 3 verification failure.

Each handler imports the modules it needs when it runs, and every payload
and CSV column is built from Python numbers, in lists or array('d'), so
every subcommand but `verify` runs without importing numpy.

Every CSV table is streamed: `_csv_table` formats it a block of rows at a
time and `_emit` writes each block to the file or stdout as it comes, so
memory scales with the samples, not with the text, and the bytes are those
of formatting every row.  A table whose right half mirrors its left half
bit for bit, as the eigenfunctions on every grid do, has only its left
half formatted; the right half is that text in reverse row order, with
the leading "-" toggled in the odd columns.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import groupby
from operator import neg

from .errors import PdemError
from .families import (
    Kind,
    VonRoosOrdering,
    bound_state_count,
    energy,
    make_family,
    require_bound,
)

_Q_MEANING = {
    "case1": "q = lambda/alpha",
    "case2": "q = 1/(alpha*lambda)",
    "case3": "q = lambda^2/(2*alpha)",
}


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _json_text(value) -> str:
    """json.dumps with floats pinned to 17 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_text(v)}"
                          for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_json_text(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


_ROWS = 256  # rows per streamed chunk
_MARK = "\x01"  # marks an odd column's cell; "%.17g" never prints it


def _odd_columns(columns: list):
    """Per column, whether row n−1−i negates row i there; None if no mirror.

    The table mirrors when in every column the right half, read backwards,
    equals the left half bit for bit (an even column) or its negation (an
    odd column), with no NaN on either side.  "%.17g" % −v is then the
    text of v with its leading "-" toggled, for ±0 and ±inf too; a NaN
    prints as "nan" whatever its sign, so it never mirrors.  The halves
    of list and array columns alike are compared as the bytes of their
    doubles, so ±0 differ.
    """
    from array import array  # verify, which has no table, never loads it
    n = len(columns[0])
    half = n // 2
    odd = []
    for c in columns:
        left, right = array("d", c[:half]), array("d", c[:n - half - 1:-1])
        if math.isnan(sum(left)):
            return None
        if left.tobytes() == right.tobytes():
            odd.append(False)
        elif left.tobytes() == array("d", map(neg, right)).tobytes():
            odd.append(True)
        else:
            return None
    return odd


def _csv_table(header: str, columns: list):
    """The CSV text of a table, a chunk of up to 256 rows at a time.

    The header line, then one "%.17g,…" row per index: every column's
    value there (columns are equally long lists or arrays of numbers).
    A mirrored table (_odd_columns) formats its left half with _MARK
    before each cell of an odd column, writes that text unmarked and
    keeps it; the centre row of an odd length is formatted as it is;
    then each kept block, rows reversed, becomes the right half: a mark
    followed by "-" drops, and every other mark turns into "-".  Only the
    kept half of the text outlives its chunk.  Any other table is
    formatted row by row.
    """
    yield header + "\n"
    n = len(columns[0])
    odd = _odd_columns(columns)
    half = 0 if odd is None else n // 2

    def rows(template: str, lo: int, hi: int) -> str:
        return "\n".join(map(template.__mod__,
                             zip(*[c[lo:hi] for c in columns])))

    kept = []
    if half:
        marked = ",".join([_MARK + "%.17g" if o else "%.17g" for o in odd])
        for i in range(0, half, _ROWS):
            text = rows(marked, i, min(i + _ROWS, half))
            kept.append(text)
            yield text.replace(_MARK, "") + "\n"
    plain = ",".join(["%.17g"] * len(columns))
    for i in range(half, n - half, _ROWS):
        yield rows(plain, i, min(i + _ROWS, n - half)) + "\n"
    while kept:
        lines = kept.pop().split("\n")
        lines.reverse()
        text = "\n".join(lines)
        yield text.replace(_MARK + "-", "").replace(_MARK, "-") + "\n"


_POLY_JSON = '{"degree": %d, "parameterization": "%s", "coeffs": [%s]}'
_ROW_JSON = '{"zeta_exp": %d, "q_exp": %d, "num": %d, "den": %d}'


def _polynomials_json(polys) -> str:
    """json.dumps([to_json_dict(p) for p in polys]), row by flat row."""
    from .polynomials import coefficient_rows
    return "[" + ", ".join(
        _POLY_JSON % (p.degree, p.parameterization.value,
                      ", ".join([_ROW_JSON % r for r in coefficient_rows(p)]))
        for p in polys) + "]"


def _ordering_flag(text: str) -> VonRoosOrdering:
    try:
        parts = [float(p) for p in text.split(",")]
        if len(parts) != 3:
            raise ValueError
        return VonRoosOrdering(*parts)
    except (ValueError, PdemError):
        raise argparse.ArgumentTypeError(
            f"expected 'a,b,c' with a+b+c = -1, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
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
    p_cmp.add_argument("--ordering", action="append", type=_ordering_flag,
                       required=True, metavar="a,b,c")
    return parser


def _n_max(family, requested) -> int:
    """The highest level: --n-max, by default min(9, cutoff − 1).

    A family that binds no state has no default, and require_bound
    refuses an explicit level that is negative or past the cutoff.
    """
    if requested is None:
        require_bound(family, 0)
        count = bound_state_count(family)
        return 9 if count is None else min(9, count - 1)
    require_bound(family, requested)
    return requested


def _write(directory: str, name: str, chunks) -> None:
    """Write the text chunks to name in directory, made if missing.

    An OSError on the way, as from a directory that is a file or a
    directory where the artifact goes, refuses the request in one line
    that names the path.
    """
    path = os.path.join(directory, name)
    try:
        os.makedirs(directory, exist_ok=True)
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise PdemError(f"cannot write {exc.filename or path}: "
                        f"{exc.strerror or exc}") from None
    print(f"wrote {path}")


def _emit(args, base: str, csv_chunks, json_text) -> None:
    """Route artifacts to --output-dir files or stdout, per --format.

    csv_chunks is an iterable of CSV text, written chunk by chunk as it
    is drained, or None when the request has no table: then the JSON
    alone is written, as by polynomials and verify, which take no
    --format, or by eigenfunctions --format json.
    """
    want_csv = csv_chunks is not None and args.format != "json"
    want_json = csv_chunks is None or args.format != "csv"
    if args.output_dir:
        if want_csv:
            _write(args.output_dir, base + ".csv", csv_chunks)
        if want_json:
            _write(args.output_dir, base + ".json", (json_text,))
    else:
        if want_csv:
            sys.stdout.writelines(csv_chunks)
        if want_json:
            sys.stdout.write(json_text + "\n")


def _grid_dict(grid) -> dict:
    """The walls and size of a grid, and the scale β of a sinh-mapped one."""
    if not grid.beta:
        return {"lo": -grid.hi, "hi": grid.hi, "n": grid.n}
    wall = grid.wall
    return {"lo": -wall, "hi": wall, "n": grid.n, "map": "sinh",
            "scale": grid.beta}


def _cmd_spectrum(args, family) -> int:
    from .discrete import assemble_lists, build_grid, eigenvalue_list
    n_max = _n_max(family, args.n_max)
    grid = build_grid(family, args.grid_n, args.tail_tolerance, n_max)
    numeric = eigenvalue_list(assemble_lists(family, grid), n_max + 1)
    algebraic = [energy(family, n) for n in range(n_max + 1)]
    errors = [abs(a - b) for a, b in zip(algebraic, numeric)]
    levels = [{"n": n, "energy_algebraic": a, "energy_numeric": b,
               "abs_error": e}
              for n, (a, b, e) in enumerate(zip(algebraic, numeric, errors))]
    payload = {"family": args.family, "alpha": args.alpha, "lambda": args.lam,
               "grid": _grid_dict(grid), "levels": levels}
    table = _csv_table("n,energy_algebraic,energy_numeric,abs_error",
                       [list(range(n_max + 1)), algebraic, numeric, errors])
    _emit(args, "spectrum", table, _json_text(payload))
    return 0


def _cmd_eigenfunctions(args, family) -> int:
    from .discrete import (
        assemble_lists,
        build_grid,
        eigenpair_lists,
        eigenvalue_list,
        mirrored_array,
    )
    n_max = _n_max(family, args.n_max)
    grid = build_grid(family, args.grid_n, args.tail_tolerance)
    # the JSON artifact holds no samples, so JSON alone computes none
    want_csv = args.format in ("csv", "both")
    if args.source == "algebraic":
        eigenvalues = [energy(family, n) for n in range(n_max + 1)]
        for n, e in enumerate(eigenvalues):
            if not math.isfinite(e):
                raise PdemError(f"the closed-form energy E_{n} is {e}: it "
                                f"leaves the range of a double")
        if want_csv:
            from .sampling import eigenfunction_lists
            vectors = eigenfunction_lists(family, n_max, grid)
    elif want_csv:
        eigenvalues, vectors = eigenpair_lists(
            assemble_lists(family, grid), n_max + 1, grid.h)
    else:
        eigenvalues = eigenvalue_list(assemble_lists(family, grid), n_max + 1)
    table = None
    if want_csv:
        header = "x," + ",".join(f"phi_{n}" for n in range(n_max + 1))
        # x is odd, and node n+1−i is −(node i) bit for bit
        x = mirrored_array(grid.nodes(grid.n - grid.n // 2), grid.n, True)
        table = _csv_table(header, [x, *vectors])
    payload = {"eigenvalues": eigenvalues, "grid": _grid_dict(grid)}
    _emit(args, "eigenfunctions", table, _json_text(payload))
    return 0


def _qpoly_str(rows) -> str:
    """c₀ + c₁q + … from the (q-exponent, numerator, denominator) rows."""
    parts = []
    for j, num, den in rows:
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if j:
            head = "" if mag == "1" else f"{mag}*"
            mag = f"{head}q" if j == 1 else f"{head}q^{j}"
        if not parts:
            parts.append(mag if num > 0 else f"-{mag}")
        else:
            parts.append(f"+ {mag}" if num > 0 else f"- {mag}")
    return " ".join(parts)


def _poly_str(poly) -> str:
    """The --symbolic form, read from the same rows as the JSON."""
    from .polynomials import coefficient_rows
    parts = []
    for k, rows in groupby(coefficient_rows(poly), key=lambda r: r[0]):
        qp = _qpoly_str(r[1:] for r in rows)
        zeta = "" if k == 0 else "*z" if k == 1 else f"*z^{k}"
        parts.append(f"({qp}){zeta}")
    return " + ".join(parts) or "0"


def _cmd_polynomials(args, family) -> int:
    from .polynomials import gf_polynomials, parameterization_for
    # a degree is not a level: only the default looks at the cutoff, and
    # gf_polynomials refuses a negative degree
    n_max = _n_max(family, None) if args.n_max is None else args.n_max
    par = parameterization_for(Kind(args.family))
    polys = gf_polynomials(n_max, par)
    if args.symbolic:
        print(f"# family {args.family}: {_Q_MEANING[par.value]}; z is the "
              f"scaled coordinate")
        for n, p in enumerate(polys):
            print(f"H_{n} = {_poly_str(p)}")
    _emit(args, "polynomials", None, _polynomials_json(polys))
    return 0


def _cmd_verify(args, family) -> int:
    from .discrete import build_grid
    from .susy import verify_all
    require_bound(family, 0)
    grid = build_grid(family, args.grid_n, args.tail_tolerance)
    residuals = verify_all(family, grid)
    for name, entry in residuals.items():
        status = "PASS" if entry.passed else "FAIL"
        print(f"{name}: value={_fmt(entry.value)} "
              f"tolerance={_fmt(entry.tolerance)} {status}")
    payload = {"family": args.family, "alpha": args.alpha, "lambda": args.lam,
               "grid_n": grid.n,
               "residuals": {name: {"value": e.value, "tolerance": e.tolerance,
                                    "pass": e.passed}
                             for name, e in residuals.items()}}
    _emit(args, "verify", None, _json_text(payload))
    return 0 if all(e.passed for e in residuals.values()) else 3


def _cmd_compare_ordering(args, family) -> int:
    from .discrete import assemble_lists, build_grid, eigenvalue_list
    n_max = _n_max(family, args.n_max)
    grid = build_grid(family, args.grid_n, args.tail_tolerance, n_max)
    k = n_max + 1
    sym = eigenvalue_list(assemble_lists(family, grid), k)
    results = []
    for ordering in args.ordering:
        ev = eigenvalue_list(assemble_lists(family, grid, ordering), k)
        results.append((ordering, ev, [v - s for v, s in zip(ev, sym)]))

    def label(o):
        return f"{o.a:g}_{o.b:g}_{o.c:g}"

    header = "n,energy_symmetric"
    columns = [list(range(k)), sym]
    for o, ev, dev in results:
        header += f",energy_{label(o)},dev_{label(o)}"
        columns += [ev, dev]
    payload = {
        "family": args.family, "alpha": args.alpha, "lambda": args.lam,
        "grid": _grid_dict(grid),
        "symmetric": sym,
        "orderings": [
            {"a": o.a, "b": o.b, "c": o.c,
             "eigenvalues": ev,
             "deviation_from_symmetric": dev}
            for o, ev, dev in results
        ],
    }
    _emit(args, "compare_ordering", _csv_table(header, columns),
          _json_text(payload))
    return 0


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "eigenfunctions": _cmd_eigenfunctions,
    "polynomials": _cmd_polynomials,
    "verify": _cmd_verify,
    "compare-ordering": _cmd_compare_ordering,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        family = make_family(Kind(args.family), args.alpha, args.lam)
        return _HANDLERS[args.command](args, family)
    except (PdemError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout before the streamed table ended, as
        # `pdemosc … | head` does: the output is cut, so exit 1 in one line
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output ended",
              file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
