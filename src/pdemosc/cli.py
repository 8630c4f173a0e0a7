"""Command-line front-end.

Subcommands: spectrum, eigenfunctions, polynomials, verify, compare-ordering.
All numbers are serialized with 17 significant digits so doubles round-trip
exactly and repeated runs are byte-identical.  Exit codes: 0 success,
1 computation error, 2 usage error, 3 verification failure.  `main`,
the process entry, freezes the collector before it exits: CPython's
shutdown collections would otherwise walk every object still alive
(site's ~11,000, and numpy's after `verify`), 7-20 ms of each request.

The command line is read by parse_args from one table, _FLAGS, which gives
each flag once with its converter and default; a subcommand is one row of
_COMMANDS, which gives its help, the flags it takes and the handler that
runs it, and its artifacts are named after it.  A flag takes its value as
`--flag value` or `--flag=value`, and a value given as the next token may
begin with a single "-" (`--lambda -1e-3`), not with "--".  A value
after "=" is its literal text, "--" too, where argparse stored an empty
list: `--output-dir=--` writes to a directory named `--`, and
`--lambda=--` exits 2 with "invalid float value: '--'".  A unique
prefix of a flag is that flag, the last value of a flag wins and each
--ordering adds one.  -h or --help anywhere prints help built from the
tables; a usage error writes a usage line and an error line to stderr
and exits 2, in argparse's words where argparse had them.  So no request
loads argparse, gettext or locale, which cost a request process 6-9 ms.

Every grid is build_grid's at --grid-n and --tail-tolerance (`_grid`).
`spectrum`, `compare-ordering` and `verify` give it their highest level,
--n-max or `verify`'s top test state, so on the whole line (s ≥ 0) their
grid is sinh-mapped on that level's box; `eigenfunctions` gives none, and
there gets a uniform grid on the ground-state box.  `spectrum` and
`compare-ordering`, which read only energies, also ask for a grid sized
for them: on the whole line its box ends where the walls stop moving the
top level, never past the level box, and a compact domain whose wall is
soft is sin-mapped.  Any other compact domain (s < 0) is spanned whole,
(−1/√−s, 1/√−s), on a uniform grid; its ground-state box only decides
the refusal of a grid with fewer than 16 nodes inside it.

Each handler imports the modules it needs when it runs, and every payload
and CSV column is built from Python numbers, in lists or array('d'), so
every subcommand but `verify` runs without importing numpy.

Every CSV table is streamed: `_csv_table` formats it a block of rows at a
time and `_emit` writes each block to the file or stdout as it comes, so
memory scales with the samples, not with the text, and the bytes are those
of formatting every row.  A table of grid.MirroredArray columns, as
x and the states of `eigenfunctions` are, has only the halves they store
formatted; the right half is that text in reverse row order, with the
leading "-" toggled in the odd columns.  None holds a NaN, whose
text has no sign: the nodes are finite, and both samplers refuse a state
whose norm is not.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from array import array
from itertools import groupby
from types import SimpleNamespace

from .errors import InvalidLambdaError, PdemError
from .families import (
    SYMMETRIC_ORDERING,
    Kind,
    VonRoosOrdering,
    energy,
    lowest_levels,
    make_family,
    require_bound,
)

def _fmt(x) -> str:
    return format(float(x), ".17g")


# a character json.dumps escapes (json.encoder.ESCAPE_ASCII)
_ESCAPED = re.compile(r'[\\"]|[^ -~]').search


def _json_text(value) -> str:
    """json.dumps with floats pinned to 17 significant digits.

    A string is written as json.dumps writes it only where that needs no
    escape, in printable ASCII with no '"' or backslash, as every name and
    label here is; any other string raises TypeError, as any other type
    does.  So no request loads json.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, str) and not _ESCAPED(value):
        return '"' + value + '"'
    if isinstance(value, dict):
        inner = ", ".join(f"{_json_text(str(k))}: {_json_text(v)}"
                          for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_json_text(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


_ROWS = 256  # rows per streamed chunk
_MARK = "\x01"  # marks an odd column's cell; "%.17g" never prints it


def _csv_table(header: str, columns: list):
    """The CSV text of a table, a chunk of up to 256 rows at a time.

    The header line, then one "%.17g,…" row per index: every column's
    value there (columns are equally long lists, arrays or
    grid.MirroredArray of numbers).  A table of MirroredArray columns
    formats the left halves they store, with _MARK before each cell of
    an odd column, writes that text unmarked and keeps it; the centre
    row of an odd length, stored too, is formatted as it is; then each kept
    block, rows reversed, becomes the right half: a mark followed by "-"
    drops, and every other mark turns into "-".  Such columns hold no
    NaN, and "%.17g" % −v is the text of v with its leading "-" toggled,
    ±0 and ±inf too, so the bytes are those of every row.  Only the kept
    half of the text outlives its chunk.  Any other table is formatted
    row by row, its MirroredArray columns first copied into array('d').
    """
    yield header + "\n"
    n = len(columns[0])
    odd = [getattr(c, "odd", None) for c in columns]
    half = 0 if None in odd else n // 2
    # a mirrored column gives rows 0 … n − half − 1 from its stored half,
    # or in a table that is not all mirrored, every row, copied once
    columns = [c if o is None else c.left if half else array("d", c)
               for c, o in zip(columns, odd)]

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


def _polynomials_json(polys, rows) -> str:
    """json.dumps([to_json_dict(p) for p in polys]), row by flat row, with
    rows[i] the coefficient_rows of polys[i]."""
    return "[" + ", ".join(
        _POLY_JSON % (p.degree, p.parameterization.value,
                      ", ".join([_ROW_JSON % r for r in p_rows]))
        for p, p_rows in zip(polys, rows)) + "]"


def ordering(text: str) -> VonRoosOrdering:
    """The --ordering "a,b,c", the exponents of m^a D m^b D m^c, which
    VonRoosOrdering requires to sum to -1."""
    return VonRoosOrdering(*map(float, text.split(",")))


# every flag once: the attribute it sets, its converter (a tuple of its
# choices, or None for --symbolic, which takes no value), default and help
_FLAGS = {
    "--family": ("family", tuple(sorted(k.value for k in Kind)), None, ""),
    "--alpha": ("alpha", float, 1.0, ""),
    "--lambda": ("lam", float, 0.0, "deformation strength of the mass law"),
    "--output-dir": ("output_dir", str, None, "write files here, not stdout"),
    "--n-max": ("n_max", int, None, "highest n (default: min(9, cutoff-1))"),
    "--grid-n": ("grid_n", int, 4000, ""),
    "--tail-tolerance": ("tail_tolerance", float, 1e-12, ""),
    "--format": ("format", ("csv", "json", "both"), "csv", ""),
    "--source": ("source", ("algebraic", "numeric"), "algebraic", ""),
    "--symbolic": ("symbolic", None, False, "also print expanded forms"),
    "--ordering": ("ordering", ordering, None, "a,b,c, a+b+c = -1; repeats"),
}
_REQUIRED = ("--family", "--ordering")  # wherever a subcommand takes them
_FAMILY = ("--family", "--alpha", "--lambda", "--output-dir")
_GRID = ("--grid-n", "--tail-tolerance")
_EVERY = _FAMILY + ("--n-max",) + _GRID + ("--format",)


def _usage(command) -> str:
    return (f"usage: pdemosc {command} [-h] [--flag VALUE ...]" if command
            else "usage: pdemosc [-h] {%s} ..." % ",".join(_COMMANDS))


def _help(command) -> str:
    """The usage, then pdemosc's subcommands, or a subcommand's flags, each
    with its choices and its default."""
    if command is None:
        return "\n".join([_usage(None), ""] + [
            f"  {name:<18}{about}" for name, (about, *_) in _COMMANDS.items()])
    about, flags, _ = _COMMANDS[command]
    lines = [_usage(command), "", about, "", "  -h, --help", "        show this"]
    for flag in flags:
        _, convert, default, text = _FLAGS[flag]
        value = "{%s}" % ",".join(convert) if type(convert) is tuple else \
            flag[2:].upper() if convert else ""
        if flag in _REQUIRED or convert and default is not None:
            text += " (required)" if flag in _REQUIRED else \
                f" (default: {default})"
        lines += [f"  {flag} {value}".rstrip(), "        " + text.strip()]
    return "\n".join(lines)


def _fail(command, message: str):
    """A usage error: the usage line and the message on stderr, exit 2."""
    prog = f"pdemosc {command}" if command else "pdemosc"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv) -> SimpleNamespace:
    """The subcommand argv names, and the value of each flag it takes.

    -h or --help anywhere prints help and raises SystemExit(0); a usage
    error raises SystemExit(2).  A flag takes its value as `--flag value`
    or `--flag=value`; a next-token value may begin with "-", not "--".  A
    unique prefix of a flag is that flag, and the last value given wins,
    but each --ordering adds one.
    """
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    if "-h" in argv or "--help" in argv:
        print(_help(command))
        raise SystemExit(0)
    if command is None:
        _fail(None, f"argument command: invalid choice: {argv[0]!r}" if argv
              else "the following arguments are required: command")
    flags, tokens, extras = _COMMANDS[command][1], iter(argv[1:]), []
    values = {flag: _FLAGS[flag][2] for flag in flags}
    for token in tokens:
        name, given, text = token.partition("=")
        # "", "-" and "--" begin every flag and name none; any longer
        # beginning of a flag begins with "--"
        found = [f for f in flags if len(name) > 2 and f.startswith(name)]
        if len(found) > 1:
            _fail(command, f"ambiguous option: {token} could match "
                  + ", ".join(found))
        if not found:
            extras.append(token)
            continue
        flag, convert = found[0], _FLAGS[found[0]][1]
        if convert and not given:  # the next token, if one is left and it
            text = next(tokens, "--")  # does not begin with "--"
            given = not text.startswith("--")
        if bool(given) != bool(convert):  # --symbolic takes no value
            _fail(command, f"argument {flag}: " + (
                "takes no value" if given else "expected one argument"))
        if type(convert) is tuple and text not in convert:
            _fail(command, f"argument {flag}: invalid choice: {text!r} "
                  f"(choose from {', '.join(map(repr, convert))})")
        try:  # --symbolic's value is True, a choice's its text
            value = convert(text) if callable(convert) else not convert or text
        except (TypeError, ValueError, PdemError):  # argparse's words
            _fail(command, f"argument {flag}: invalid {convert.__name__} "
                  f"value: {text!r}")
        # the last value given wins, but each --ordering adds one
        values[flag] = [*(values[flag] or ()), value] \
            if flag == "--ordering" else value
    missing = [f for f in _REQUIRED if f in flags and values[f] is None]
    if missing:
        _fail(command, "the following arguments are required: "
              + ", ".join(missing))
    if extras:
        _fail(command, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(command=command,
                           **{_FLAGS[f][0]: v for f, v in values.items()})


def _n_max(family, requested) -> int:
    """The highest level: --n-max, by default the top of
    lowest_levels(family, 10); require_bound refuses a negative level or
    one past the cutoff."""
    if requested is None:
        return lowest_levels(family, 10) - 1
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


def _emit(args, csv_chunks, json_text) -> None:
    """Route artifacts to --output-dir files or stdout, per --format; the
    files are named after the subcommand, "-" written "_".

    csv_chunks is an iterable of CSV text, written chunk by chunk as it
    is drained, or None when the request has no table: then the JSON
    alone is written, as by polynomials and verify, which take no
    --format, or by eigenfunctions --format json.
    """
    want_csv = csv_chunks is not None and args.format != "json"
    want_json = csv_chunks is None or args.format != "csv"
    if args.output_dir:
        base = args.command.replace("-", "_")
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
    """The walls and size of a grid, and the map and scale β of a mapped
    one."""
    wall = grid.wall
    out = {"lo": -wall, "hi": wall, "n": grid.n}
    if grid.map:
        out.update(map=grid.map, scale=grid.beta)
    return out


def _grid(args, family, n_max=None, energies=False):
    """The request's grid: build_grid at --grid-n and --tail-tolerance, on
    the level box of n_max when one is given, sized for the energies of
    levels 0 … n_max where `energies` is set."""
    from .grid import build_grid
    return build_grid(family, args.grid_n, args.tail_tolerance, n_max,
                      energies)


def _predictions(family, k: int):
    """The closed-form energies of levels 0 … k − 1, where the eigensolver
    starts its first searches, or None where one leaves the range of a
    double: they pick the solver's path, never what it certifies or
    refuses."""
    try:
        return [energy(family, n) for n in range(k)]
    except InvalidLambdaError:
        return None


def _solve(family, grid, k: int, orderings=()) -> list:
    """The k lowest levels of the symmetric ordering, then of each ordering
    given, one list each, each solve started at the _predictions."""
    from .discrete import assemble_lists, eigenvalue_list
    predictions = _predictions(family, k)
    return [eigenvalue_list(assemble_lists(family, grid, o), k, predictions)
            for o in (SYMMETRIC_ORDERING, *orderings)]


def _json_head(args, **fields) -> str:
    """The JSON of the family, alpha and lambda asked for, then fields."""
    return _json_text({"family": args.family, "alpha": args.alpha,
                       "lambda": args.lam, **fields})


def _cmd_spectrum(args, family) -> int:
    n_max = _n_max(family, args.n_max)
    grid = _grid(args, family, n_max, energies=True)
    numeric, = _solve(family, grid, n_max + 1)
    algebraic = [energy(family, n) for n in range(n_max + 1)]
    errors = [abs(a - b) for a, b in zip(algebraic, numeric)]
    levels = [{"n": n, "energy_algebraic": a, "energy_numeric": b,
               "abs_error": e}
              for n, (a, b, e) in enumerate(zip(algebraic, numeric, errors))]
    table = _csv_table("n,energy_algebraic,energy_numeric,abs_error",
                       [list(range(n_max + 1)), algebraic, numeric, errors])
    _emit(args, table, _json_head(args, grid=_grid_dict(grid), levels=levels))
    return 0


def _cmd_eigenfunctions(args, family) -> int:
    from .grid import MirroredArray
    n_max = _n_max(family, args.n_max)
    grid = _grid(args, family)
    # the JSON artifact holds no samples, so JSON alone computes none
    want_csv = args.format in ("csv", "both")
    if args.source == "algebraic":
        eigenvalues = [energy(family, n) for n in range(n_max + 1)]
        if want_csv:
            from .sampling import eigenfunction_lists
            vectors = eigenfunction_lists(family, n_max, grid)
    else:
        # only a numeric source loads the stencil and the eigensolver; the
        # bands are passed, not bound, so eigenpair_lists can free them
        if want_csv:
            from .discrete import assemble_lists, eigenpair_lists
            eigenvalues, vectors = eigenpair_lists(
                assemble_lists(family, grid), n_max + 1, grid.weights(),
                _predictions(family, n_max + 1))
        else:
            eigenvalues, = _solve(family, grid, n_max + 1)
    table = None
    if want_csv:
        header = "x," + ",".join(f"phi_{n}" for n in range(n_max + 1))
        # x is odd, and node n+1−i is −(node i) bit for bit
        x = MirroredArray(grid.node(range(1, grid.n - grid.n // 2 + 1)),
                          grid.n, True)
        table = _csv_table(header, [x, *vectors])
    payload = {"eigenvalues": eigenvalues, "grid": _grid_dict(grid)}
    _emit(args, table, _json_text(payload))
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


def _poly_str(poly_rows) -> str:
    """The --symbolic form of a polynomial, read from its coefficient_rows,
    the same rows as the JSON."""
    parts = []
    for k, rows in groupby(poly_rows, key=lambda r: r[0]):
        qp = _qpoly_str(r[1:] for r in rows)
        zeta = "" if k == 0 else "*z" if k == 1 else f"*z^{k}"
        parts.append(f"({qp}){zeta}")
    return " + ".join(parts) or "0"


def _cmd_polynomials(args, family) -> int:
    from .polynomials import (STORED_VARIABLE, coefficient_rows,
                              gf_polynomials, parameterization_for)
    # a degree is not a level: only the default looks at the cutoff, and
    # gf_polynomials refuses a negative degree
    n_max = _n_max(family, None) if args.n_max is None else args.n_max
    par = parameterization_for(Kind(args.family))
    polys = gf_polynomials(n_max, par)
    rows = [coefficient_rows(p) for p in polys]
    if args.symbolic:
        print(f"# family {args.family}: {STORED_VARIABLE[par][1]}; z is the "
              f"scaled coordinate")
        for n, p_rows in enumerate(rows):
            print(f"H_{n} = {_poly_str(p_rows)}")
    _emit(args, None, _polynomials_json(polys, rows))
    return 0


def _cmd_verify(args, family) -> int:
    from .susy import state_count, verify_all
    grid = _grid(args, family, state_count(family) - 1)
    residuals = verify_all(family, grid)
    for name, entry in residuals.items():
        status = "PASS" if entry.passed else "FAIL"
        print(f"{name}: value={_fmt(entry.value)} "
              f"tolerance={_fmt(entry.tolerance)} {status}")
    _emit(args, None, _json_head(
        args, grid_n=grid.n, grid=_grid_dict(grid),
        residuals={name: {"value": e.value, "tolerance": e.tolerance,
                          "pass": e.passed}
                   for name, e in residuals.items()}))
    return 0 if all(e.passed for e in residuals.values()) else 3


def _cmd_compare_ordering(args, family) -> int:
    n_max = _n_max(family, args.n_max)
    grid = _grid(args, family, n_max, energies=True)
    sym, *spectra = _solve(family, grid, n_max + 1, args.ordering)
    header = "n,energy_symmetric"
    columns = [list(range(n_max + 1)), sym]
    entries = []
    for o, ev in zip(args.ordering, spectra):
        dev = [v - s for v, s in zip(ev, sym)]
        label = f"{o.a:g}_{o.b:g}_{o.c:g}"
        header += f",energy_{label},dev_{label}"
        columns += [ev, dev]
        entries.append({"a": o.a, "b": o.b, "c": o.c, "eigenvalues": ev,
                        "deviation_from_symmetric": dev})
    _emit(args, _csv_table(header, columns), _json_head(
        args, grid=_grid_dict(grid), symmetric=sym, orderings=entries))
    return 0


# each subcommand's help, the flags it reads, and no other, and its handler
_COMMANDS = {
    "spectrum": ("algebraic vs numeric energy levels", _EVERY, _cmd_spectrum),
    "eigenfunctions": ("samples of the bound states", _EVERY + ("--source",),
                       _cmd_eigenfunctions),
    "polynomials": ("exact coefficients", _FAMILY + ("--n-max", "--symbolic"),
                    _cmd_polynomials),
    "verify": ("operator-identity residual checks", _FAMILY + _GRID,
               _cmd_verify),
    "compare-ordering": ("spectra per ordering", _EVERY + ("--ordering",),
                         _cmd_compare_ordering),
}


def run(argv) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        family = make_family(Kind(args.family), args.alpha, args.lam)
        return _COMMANDS[args.command][2](args, family)
    except (PdemError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    """The process entry of `pdemosc` and `python -m pdemosc`: run the
    request in sys.argv and exit with its code.

    Before it exits it freezes the collector, so the interpreter's shutdown
    collections skip every object alive by then; every artifact is written
    and closed before that.  Code that embeds the CLI calls run(argv).
    """
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
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
