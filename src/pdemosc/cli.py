"""Command-line front-end.

Subcommands: spectrum, eigenfunctions, polynomials, verify, compare-ordering.
All numbers are serialized with 17 significant digits so doubles round-trip
exactly and repeated runs are byte-identical.  Exit codes: 0 success,
1 computation error, 2 usage error, 3 verification failure.

Each handler imports the modules it needs when it runs, and every payload
is built from Python numbers, so `spectrum`, `compare-ordering`, numeric
`eigenfunctions` and `polynomials` run without importing numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import NotABoundStateError, PdemError
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
    if value is None:
        return "null"
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_text(v)}"
                          for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_text(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _csv_rows(x, columns):
    """"%.17g,…" rows, one per node: x, then every column's value there.

    x and the columns are float lists or ndarrays; ndarrays become Python
    floats 256 nodes at a time, so the whole table never exists as a list
    of lists (that would add MBs to the peak RSS).  Yields the rows 256 at a
    time, joined by newlines.
    """
    fmt = ",".join(["%.17g"] * (len(columns) + 1))
    for i in range(0, len(x), 256):
        block = [c[i:i + 256] for c in (x, *columns)]
        block = [c if isinstance(c, list) else c.tolist() for c in block]
        yield "\n".join(map(fmt.__mod__, zip(*block)))


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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--family", required=True,
                        choices=sorted(k.value for k in Kind))
    common.add_argument("--alpha", type=float, default=1.0)
    common.add_argument("--lambda", dest="lam", type=float, default=0.0,
                        help="deformation strength of the mass law")
    common.add_argument("--n-max", type=int, default=None,
                        help="highest level/degree (default min(9, cutoff-1))")
    common.add_argument("--grid-n", type=int, default=4000)
    common.add_argument("--tail-tolerance", type=float, default=1e-12)
    common.add_argument("--output-dir", default=None,
                        help="write artifacts here instead of stdout")
    common.add_argument("--format", choices=["csv", "json", "both"],
                        default="csv")

    parser = argparse.ArgumentParser(
        prog="pdemosc",
        description="Spectra and eigenfunctions of position-dependent-mass "
                    "nonlinear oscillators, computed algebraically and "
                    "cross-checked by finite differences.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[common],
                   help="algebraic vs numeric energy levels")
    p_eig = sub.add_parser("eigenfunctions", parents=[common],
                           help="grid samples of the bound states")
    p_eig.add_argument("--source", choices=["algebraic", "numeric"],
                       default="algebraic")
    p_pol = sub.add_parser("polynomials", parents=[common],
                           help="exact deformed-polynomial coefficients")
    p_pol.add_argument("--symbolic", action="store_true",
                       help="also print human-readable expanded forms")
    sub.add_parser("verify", parents=[common],
                   help="run all operator-identity residual checks")
    p_cmp = sub.add_parser("compare-ordering", parents=[common],
                           help="spectra under alternative kinetic orderings")
    p_cmp.add_argument("--ordering", action="append", type=_ordering_flag,
                       default=None, metavar="a,b,c")
    return parser


def _n_max(family, requested, levels: bool = True) -> int:
    """--n-max, by default min(9, cutoff − 1).

    A family that binds no state has no default.  When the indices are
    levels (not polynomial degrees) an explicit request past the cutoff is
    refused.
    """
    if requested is not None and requested < 0:
        raise PdemError(f"n-max must be nonnegative, got {requested}")
    if requested is None or levels:
        require_bound(family, 0)
    count = bound_state_count(family)
    if requested is None:
        return 9 if count is None else min(9, count - 1)
    if levels:
        try:
            require_bound(family, requested)
        except NotABoundStateError:
            raise NotABoundStateError(
                f"requested levels up to n = {requested}, but this family binds "
                f"only {count} states (n = 0..{count - 1}); "
                f"levels at and above the cutoff are not bound") from None
    return requested


def _emit(args, base: str, csv_text, json_text) -> None:
    """Route artifacts to --output-dir files or stdout, per --format."""
    want_csv = csv_text is not None and args.format in ("csv", "both")
    want_json = json_text is not None and args.format in ("json", "both")
    if json_text is not None and csv_text is None:
        want_json = True  # JSON-only artifacts ignore --format
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        if want_csv:
            path = os.path.join(args.output_dir, base + ".csv")
            with open(path, "w") as fh:
                fh.write(csv_text)
            print(f"wrote {path}")
        if want_json:
            path = os.path.join(args.output_dir, base + ".json")
            with open(path, "w") as fh:
                fh.write(json_text)
            print(f"wrote {path}")
    else:
        if want_csv:
            sys.stdout.write(csv_text)
        if want_json:
            sys.stdout.write(json_text + "\n")


def _grid_dict(grid) -> dict:
    return {"lo": grid.lo, "hi": grid.hi, "n": grid.n}


def _cmd_spectrum(args, family) -> int:
    from .discrete import assemble_lists, build_grid, eigenvalue_list
    n_max = _n_max(family, args.n_max)
    grid = build_grid(family, args.grid_n, args.tail_tolerance)
    eigenvalues = eigenvalue_list(assemble_lists(family, grid), n_max + 1)
    lines = ["n,energy_algebraic,energy_numeric,abs_error"]
    levels = []
    for n in range(n_max + 1):
        e_alg = energy(family, n)
        e_num = eigenvalues[n]
        err = abs(e_alg - e_num)
        lines.append(f"{n},{_fmt(e_alg)},{_fmt(e_num)},{_fmt(err)}")
        levels.append({"n": n, "energy_algebraic": e_alg,
                       "energy_numeric": e_num, "abs_error": err})
    payload = {"family": args.family, "alpha": args.alpha, "lambda": args.lam,
               "grid": _grid_dict(grid), "levels": levels}
    _emit(args, "spectrum", "\n".join(lines) + "\n", _json_text(payload))
    return 0


def _cmd_eigenfunctions(args, family) -> int:
    from .discrete import assemble_lists, build_grid, eigenpair_lists
    n_max = _n_max(family, args.n_max)
    grid = build_grid(family, args.grid_n, args.tail_tolerance)
    if args.source == "numeric":
        eigenvalues, vectors = eigenpair_lists(
            assemble_lists(family, grid), n_max + 1, grid.h)
    else:
        from .arrays import eigenfunction_samples
        vectors = [eigenfunction_samples(family, n, grid)
                   for n in range(n_max + 1)]
        eigenvalues = [energy(family, n) for n in range(n_max + 1)]
    csv_text = None
    if args.format in ("csv", "both"):
        header = "x," + ",".join(f"phi_{n}" for n in range(n_max + 1))
        csv_text = "\n".join([header, *_csv_rows(grid.nodes(), vectors)]) + "\n"
    payload = {"eigenvalues": eigenvalues, "grid": _grid_dict(grid)}
    _emit(args, "eigenfunctions", csv_text, _json_text(payload))
    return 0


def _qpoly_str(qp: dict) -> str:
    if not qp:
        return "0"
    parts = []
    for j in sorted(qp):
        c = qp[j]
        mag = abs(c)
        if j == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else f"{mag}*"
            body = f"{head}q" if j == 1 else f"{head}q^{j}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def _poly_str(poly) -> str:
    if not poly.coeffs:
        return "0"
    parts = []
    for k in sorted(poly.coeffs):
        qp = _qpoly_str(poly.coeffs[k])
        if k == 0:
            parts.append(f"({qp})")
        elif k == 1:
            parts.append(f"({qp})*z")
        else:
            parts.append(f"({qp})*z^{k}")
    return " + ".join(parts)


def _cmd_polynomials(args, family) -> int:
    from .polynomials import gf_polynomials, parameterization_for
    # degree is a polynomial index, not a level, so no bound-count gate
    n_max = _n_max(family, args.n_max, levels=False)
    par = parameterization_for(family.profile.kind)
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
    from .susy import report_to_json_dict, verify_all
    require_bound(family, 0)
    grid = build_grid(family, args.grid_n, args.tail_tolerance)
    report = verify_all(family, grid)
    ok = True
    for name, entry in report.residuals.items():
        status = "PASS" if entry.passed else "FAIL"
        ok = ok and entry.passed
        print(f"{name}: value={_fmt(entry.value)} "
              f"tolerance={_fmt(entry.tolerance)} {status}")
    _emit(args, "verify", None, _json_text(report_to_json_dict(report)))
    return 0 if ok else 3


def _cmd_compare_ordering(args, family) -> int:
    if not args.ordering:
        print("error: compare-ordering needs at least one --ordering a,b,c",
              file=sys.stderr)
        return 2
    from .discrete import (
        assemble_lists,
        build_grid,
        eigenvalue_list,
        von_roos_asymmetry,
    )
    n_max = _n_max(family, args.n_max)
    grid = build_grid(family, args.grid_n, args.tail_tolerance)
    k = n_max + 1
    sym = eigenvalue_list(assemble_lists(family, grid), k)
    results = []
    for ordering in args.ordering:
        ev = eigenvalue_list(assemble_lists(family, grid, ordering), k)
        results.append((ordering, ev, von_roos_asymmetry(family, ordering, grid)))

    def label(o):
        return f"{o.a:g}_{o.b:g}_{o.c:g}"

    header = "n,energy_symmetric"
    for o, _, _ in results:
        header += f",energy_{label(o)},dev_{label(o)}"
    lines = [header]
    for n in range(k):
        cells = [str(n), _fmt(sym[n])]
        for _, ev, _ in results:
            cells += [_fmt(ev[n]), _fmt(ev[n] - sym[n])]
        lines.append(",".join(cells))
    payload = {
        "family": args.family, "alpha": args.alpha, "lambda": args.lam,
        "grid": _grid_dict(grid),
        "symmetric": sym,
        "orderings": [
            {"a": o.a, "b": o.b, "c": o.c,
             "eigenvalues": ev,
             "deviation_from_symmetric": [v - s for v, s in zip(ev, sym)],
             "asymmetry": asym}
            for o, ev, asym in results
        ],
    }
    _emit(args, "compare_ordering", "\n".join(lines) + "\n", _json_text(payload))
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
    except PdemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
