"""Output checker: decides whether one request process did the right thing.

A request fails when its exit code is not the one expected, when it prints
a traceback, or when its artifacts are malformed or disagree with the
closed forms they claim to reproduce.  A correct refusal (exit 1 with an
``error:`` line) is not a failure.  What the checker parses is returned,
so the accuracy oracles reuse it.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
from fractions import Fraction

import numpy as np

from workloads import Request, levels

VERIFY_NAMES = ["factorization", "annihilation", "intertwine_minus",
                "intertwine_plus", "superalgebra_offdiag", "shift_identity"]


class CheckFailed(Exception):
    pass


def _need(cond, why):
    if not cond:
        raise CheckFailed(why)


def fmt17(x) -> str:
    return format(float(x), ".17g")


class Checker:
    """Holds the program's own `energy` and `make_family` for the energy check."""

    def __init__(self, pdemosc_module):
        self.pdem = pdemosc_module

    def check(self, req: Request, rc: int, out: bytes, err: bytes, out_dir: str):
        """(parsed outputs, None) or ({}, why the request failed)."""
        try:
            return self._check(req, rc, out, err, out_dir), None
        except (CheckFailed, ValueError, KeyError, IndexError, TypeError,
                OSError) as exc:
            return {}, f"{req.label}: {type(exc).__name__}: {exc}"

    def _check(self, req, rc, out, err, out_dir):
        stderr = err.decode("utf-8", "replace")
        _need("Traceback (most recent call last)" not in stderr,
              "traceback: " + stderr.strip().splitlines()[-1][:160]
              if stderr.strip() else "traceback")
        if req.expect != "ok":
            _need(rc == 1, f"expected a refusal (exit 1), got exit {rc}")
            _need(stderr.startswith("error:"), "refusal without an error line")
            if req.expect == "no-bound":
                _need(re.search(r"bind|no bound", stderr),
                      "refusal does not say that no state is bound: "
                      + stderr.strip()[:120])
            return {}
        _need(rc in (0, 3) if req.cmd == "verify" else rc == 0,
              f"exit {rc}: {stderr.strip()[:160]}")
        text = out.decode("utf-8")
        pre, csv_text, json_text = self._artifacts(req, text, out_dir)
        handler = {"spectrum": self._spectrum, "eigenfunctions": self._eigen,
                   "polynomials": self._poly, "verify": self._verify,
                   "compare-ordering": self._compare}[req.cmd]
        return handler(req, rc, pre, csv_text,
                       None if json_text is None else json.loads(json_text))

    # --- locating the artifacts -------------------------------------------

    def _artifacts(self, req, text, out_dir):
        json_only = req.cmd in ("polynomials", "verify")
        want_csv = not json_only and req.fmt in ("csv", "both")
        want_json = json_only or req.fmt in ("json", "both")
        lines = text.splitlines(keepends=True)
        base = req.cmd.replace("-", "_")  # the artifact's file name
        if req.to_dir:
            wrote = [f"wrote {os.path.join(out_dir, base + ext)}\n"
                     for ext, on in ((".csv", want_csv), (".json", want_json))
                     if on]
            _need(lines[len(lines) - len(wrote):] == wrote,
                  "stdout does not list the written artifacts")
            pre = lines[:len(lines) - len(wrote)]
            files = sorted(os.listdir(out_dir))
            _need(files == sorted(os.path.basename(w.split()[1]) for w in wrote),
                  f"unexpected files in the output directory: {files}")

            def read(ext):
                with open(os.path.join(out_dir, base + ext)) as fh:
                    return fh.read()
            csv_text = read(".csv") if want_csv else None
            json_text = read(".json") if want_json else None
            return pre, csv_text, json_text
        json_text = None
        if want_json:
            _need(lines and lines[-1].endswith("\n"), "missing JSON line")
            json_text = lines.pop()
        if json_only:
            return lines, None, json_text
        return [], "".join(lines) if want_csv else None, json_text

    # --- per-command checks ------------------------------------------------

    def _family(self, req):
        kinds = {"case1": self.pdem.Kind.CASE1, "case2": self.pdem.Kind.CASE2,
                 "case3": self.pdem.Kind.CASE3,
                 "constant": self.pdem.Kind.CONSTANT}
        return self.pdem.make_family(kinds[req.family], req.alpha, req.lam)

    def _energies(self, req, n):
        fam = self._family(req)
        return [self.pdem.energy(fam, i) for i in range(n)]

    def _grid(self, req, grid):
        _need(grid["n"] == req.grid, f"grid n {grid['n']} != {req.grid}")
        _need(grid["lo"] < grid["hi"], "empty grid interval")

    def _spectrum(self, req, rc, pre, csv_text, doc):
        k = levels(req) + 1
        alg = self._energies(req, k)
        num = None
        if csv_text is not None:
            rows = csv_text.splitlines()
            _need(rows[0] == "n,energy_algebraic,energy_numeric,abs_error",
                  "bad spectrum header")
            _need(len(rows) == k + 1, f"{len(rows) - 1} rows, expected {k}")
            num = []
            for n, row in enumerate(rows[1:]):
                cells = row.split(",")
                _need(len(cells) == 4, "spectrum row is not 4 columns")
                _need(cells[0] == str(n), "level index out of order")
                _need(cells[1] == fmt17(alg[n]),
                      f"E_{n} algebraic {cells[1]} != energy() {fmt17(alg[n])}")
                e = float(cells[2])
                _need(cells[3] == fmt17(abs(alg[n] - e)), "abs_error mismatch")
                num.append(e)
        if doc is not None:
            self._grid(req, doc["grid"])
            lv = doc["levels"]
            _need(len(lv) == k, "JSON level count")
            _need([d["energy_algebraic"] for d in lv] == alg,
                  "JSON algebraic energies differ from energy()")
            js = [d["energy_numeric"] for d in lv]
            _need(num is None or js == num, "CSV and JSON numeric energies differ")
            num = js
        self._ascending(num, "numeric energies")
        return {"alg": alg, "num": num}

    @staticmethod
    def _ascending(values, what):
        arr = np.asarray(values, dtype=float)
        _need(np.all(np.isfinite(arr)), f"{what} not finite")
        _need(np.all(np.diff(arr) > 0), f"{what} not ascending")

    def _eigen(self, req, rc, pre, csv_text, doc):
        k = levels(req) + 1
        parsed = {}
        if csv_text is not None:
            header, _, body = csv_text.partition("\n")
            _need(header == "x," + ",".join(f"phi_{n}" for n in range(k)),
                  "bad eigenfunctions header")
            table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
            _need(table.shape == (req.grid, k + 1),
                  f"table shape {table.shape} != {(req.grid, k + 1)}")
            _need(np.all(np.isfinite(table)), "non-finite samples")
            x, phi = table[:, 0], table[:, 1:].T
            _need(np.all(np.diff(x) > 0), "grid not ascending")
            h = (x[-1] - x[0]) / (len(x) - 1)
            norms = h * np.einsum("ij,ij->i", phi, phi)
            _need(np.all(np.abs(norms - 1.0) < 1e-9),
                  f"samples not unit-normalized (worst {np.max(np.abs(norms - 1)):.3g})")
            parsed = {"x": x, "phi": phi}
        if doc is not None:
            self._grid(req, doc["grid"])
            ev = doc["eigenvalues"]
            _need(len(ev) == k, "JSON eigenvalue count")
            if req.source == "algebraic":
                _need(ev == self._energies(req, k),
                      "JSON eigenvalues differ from energy()")
            else:
                self._ascending(ev, "numeric eigenvalues")
        return parsed

    def _poly(self, req, rc, pre, csv_text, doc):
        n = req.n_max
        par = req.family if req.family in ("case2", "case3") else "case1"
        _need(isinstance(doc, list) and len(doc) == n + 1, "polynomial count")
        for d, entry in enumerate(doc):
            _need(entry["degree"] == d and entry["parameterization"] == par,
                  f"polynomial {d} has degree/parameterization "
                  f"{entry['degree']}/{entry['parameterization']}")
            harmonic = {r["zeta_exp"]: Fraction(r["num"], r["den"])
                        for r in entry["coeffs"] if r["q_exp"] == 0}
            _need(all(r["den"] > 0 and r["num"] != 0 for r in entry["coeffs"]),
                  "zero or unreduced coefficient row")
            _need(harmonic == _hermite(d), f"H_{d} at q = 0 is not Hermite")
        if req.symbolic:
            _need(len(pre) == n + 2 and pre[0].startswith("# family "),
                  "symbolic listing has the wrong length")
            _need(all(pre[d + 1].startswith(f"H_{d} = ") for d in range(n + 1)),
                  "symbolic listing out of order")
        else:
            _need(not pre, "unexpected text before the JSON")
        return {}

    def _verify(self, req, rc, pre, csv_text, doc):
        _need(len(pre) == len(VERIFY_NAMES), "verify status line count")
        res = doc["residuals"]
        _need(list(res) == VERIFY_NAMES, "verify residual names")
        _need(doc["grid_n"] == req.grid, "verify grid_n")
        margins = []
        for line, name in zip(pre, VERIFY_NAMES):
            e = res[name]
            status = "PASS" if e["pass"] else "FAIL"
            _need(line == f"{name}: value={fmt17(e['value'])} "
                          f"tolerance={fmt17(e['tolerance'])} {status}\n",
                  f"{name}: status line disagrees with JSON")
            _need(e["pass"] == (e["value"] <= e["tolerance"]),
                  f"{name}: pass flag disagrees with value and tolerance")
            if e["tolerance"] > 0:
                margins.append(e["value"] / e["tolerance"])
        all_pass = all(e["pass"] for e in res.values())
        _need(rc == (0 if all_pass else 3), f"exit {rc} with all_pass={all_pass}")
        return {"margins": margins}

    def _compare(self, req, rc, pre, csv_text, doc):
        k = levels(req) + 1
        labels = [f"{a:g}_{b:g}_{c:g}" for a, b, c in req.orderings]
        sym = None
        if csv_text is not None:
            rows = csv_text.splitlines()
            _need(rows[0] == "n,energy_symmetric" + "".join(
                f",energy_{s},dev_{s}" for s in labels), "bad compare header")
            _need(len(rows) == k + 1, "compare-ordering row count")
            sym = []
            for n, row in enumerate(rows[1:]):
                cells = row.split(",")
                _need(len(cells) == 2 + 2 * len(labels) and cells[0] == str(n),
                      "compare-ordering row shape")
                s = float(cells[1])
                for j in range(len(labels)):
                    e = float(cells[2 + 2 * j])
                    _need(math.isfinite(e) and cells[3 + 2 * j] == fmt17(e - s),
                          "deviation column disagrees with its energies")
                sym.append(s)
        if doc is not None:
            self._grid(req, doc["grid"])
            _need(sym is None or doc["symmetric"] == sym,
                  "CSV and JSON symmetric energies differ")
            sym = doc["symmetric"]
            _need(len(doc["orderings"]) == len(labels), "ordering count")
            for o in doc["orderings"]:
                self._ascending(o["eigenvalues"], "ordered energies")
        _need(len(sym) == k, "compare-ordering level count")
        self._ascending(sym, "symmetric energies")
        return {}


def _hermite(n: int) -> dict:
    """Physicists' Hermite H_n coefficients, exactly."""
    out = {}
    for m in range(n // 2 + 1):
        c = ((-1) ** m * math.factorial(n) * 2 ** (n - 2 * m)
             // (math.factorial(m) * math.factorial(n - 2 * m)))
        out[n - 2 * m] = Fraction(c)
    return out
