"""Traced request: run one pdemosc command with spans around its layers.

    python perfbench/trace_boot.py SPANS.json -- <pdemosc arguments>

Behaves like ``python -m pdemosc <arguments>`` (same stdout, files and exit
code) but first wraps the public functions of every pdemosc module in
spans.  A function is wrapped in every module namespace that binds it
(``pdemosc.cli.eigen_tridiagonal`` and ``pdemosc.susy.eigen_tridiagonal``
are separate bindings), so calls between modules are seen too.  Spans stay
in memory as (name, start, end, parent, counters) and are written to
SPANS.json when the command returns.

The inputs and results of every eigen_tridiagonal call are saved next to
SPANS.json (as SPANS.npz) for the caller's LAPACK oracle.  The time spent
after the command returns is reported as ``post_s`` so the caller can
subtract it.
"""

import json
import sys
import time
import traceback

clock = time.monotonic


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, counters]
        self.stack = []
        self.eigen_calls = []
        self.matmuls = 0

    def span(self, name, fn, counters=None, keep=None):
        tracer = self

        def wrapped(*args, **kwargs):
            idx = len(tracer.spans)
            rec = [name, clock(), 0.0, tracer.stack[-1] if tracer.stack else -1, None]
            tracer.spans.append(rec)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                tracer.stack.pop()
            if counters is not None:
                rec[4] = counters(args, kwargs, result)
            if keep is not None:
                keep(args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def install(tracer, pdemosc):
    """Wrap every public function of every pdemosc module, in every binding."""
    from pdemosc import cli, discrete, families, polynomials, susy

    def eigen_counters(args, kwargs, result):
        t = _arg(args, kwargs, 0, "T")
        return {"pairs": int(_arg(args, kwargs, 1, "k")), "nodes": len(t.diag)}

    def keep_eigen(args, kwargs, result):
        t = _arg(args, kwargs, 0, "T")
        tracer.eigen_calls.append((t.diag.copy(), t.offdiag.copy(), result))

    special = {
        discrete.eigen_tridiagonal: dict(counters=eigen_counters, keep=keep_eigen),
        discrete.build_grid: dict(counters=lambda a, k, r: {"nodes": r.n}),
        discrete.assemble_sturm_liouville: dict(
            counters=lambda a, k, r: {"nodes": len(r.diag)}),
        discrete.assemble_von_roos: dict(
            counters=lambda a, k, r: {"nodes": len(r.diag)}),
        polynomials.gf_polynomial: dict(
            counters=lambda a, k, r: {"degree": r.degree}),
        polynomials.rodrigues_polynomial: dict(
            counters=lambda a, k, r: {"degree": r.degree}),
        polynomials.eigenfunction_samples: dict(
            counters=lambda a, k, r: {"samples": len(r)}),
    }
    wrappers = {}
    for mod in (discrete, families, polynomials, susy):
        for attr, fn in vars(mod).items():
            if (callable(fn) and not attr.startswith("_")
                    and getattr(fn, "__module__", None) == mod.__name__
                    and not isinstance(fn, type)):
                wrappers[fn] = tracer.span(
                    f"{mod.__name__.split('.')[-1]}.{attr}", fn,
                    **special.get(fn, {}))
    for mod in (pdemosc, cli, discrete, families, polynomials, susy):
        for attr, fn in list(vars(mod).items()):
            if not isinstance(fn, type) and callable(fn) and fn in wrappers:
                setattr(mod, attr, wrappers[fn])

    matmul = susy.Banded.__matmul__

    def counted(self, other):
        tracer.matmuls += 1
        return matmul(self, other)
    susy.Banded.__matmul__ = counted


def main():
    sep = sys.argv.index("--")
    out_path, argv = sys.argv[1], sys.argv[sep + 1:]
    tracer = Tracer()
    t0 = clock()
    import pdemosc
    import_s = clock() - t0
    install(tracer, pdemosc)
    run = tracer.span("cli.run", pdemosc.cli.run)
    try:
        rc = run(argv)
    except Exception:  # report it as the interpreter would, and keep the spans
        traceback.print_exc()
        rc = 1
    sys.stdout.flush()
    t_done = clock()
    if tracer.eigen_calls:
        import numpy as np
        arrays = {}
        for i, (diag, off, sol) in enumerate(tracer.eigen_calls):
            arrays.update({f"diag{i}": diag, f"off{i}": off,
                           f"vals{i}": sol.eigenvalues, f"vecs{i}": sol.eigenvectors})
        np.savez(out_path[:-len(".json")] + ".npz", **arrays)
    doc = {"import_s": import_s, "rc": rc, "matmuls": tracer.matmuls,
           "spans": tracer.spans, "eigen_calls": len(tracer.eigen_calls),
           "post_s": clock() - t_done}
    with open(out_path, "w") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
