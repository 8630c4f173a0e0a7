"""A ledger of output bytes: fixed requests whose every byte is pinned.

Each request below runs through `cli.run` in an empty working directory,
and its exit code, stdout, stderr and every file it writes under
`--output-dir out` are hashed; the digests must equal those checked in
beside this file in output_ledger.json.  The requests are the accuracy
panel, the four edge probes and one request of each benchmark class, with
the values a class draws at random fixed here.

A change that moves output bytes on purpose regenerates the ledger,

    PYTHONPATH=src python tests/test_output_ledger.py --write

and the ledger's diff names the requests that moved.  The nodes of a
mapped grid and the closed forms come from the platform's libm, and
`verify` from numpy's vector loops, so another platform may read other
last bits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

from pdemosc.cli import run

LEDGER = Path(__file__).with_name("output_ledger.json")

REQUESTS = {
    # the accuracy panel
    "panel-spectrum-case1-0.1":
        "spectrum --family case1 --alpha 1.0 --lambda 0.1 --n-max 9",
    "panel-spectrum-case1-0.3": "spectrum --family case1 --alpha 1.0 --lambda 0.3",
    "panel-spectrum-case2":
        "spectrum --family case2 --alpha 1.0 --lambda 10.0 --n-max 9",
    "panel-spectrum-case3":
        "spectrum --family case3 --alpha 1.0 --lambda 0.2 --n-max 14 --grid-n 2000",
    "panel-spectrum-constant":
        "spectrum --family constant --alpha 1.0 --lambda 0.0 --n-max 19 --grid-n 2000",
    "panel-eigenfunctions-constant":
        "eigenfunctions --family constant --alpha 1.0 --lambda 0.0 --n-max 40 "
        "--grid-n 2000 --source algebraic",
    "panel-eigenfunctions-case1":
        "eigenfunctions --family case1 --alpha 1.0 --lambda 0.02 --n-max 20 "
        "--grid-n 2000 --source algebraic",
    "panel-eigenfunctions-case3":
        "eigenfunctions --family case3 --alpha 1.0 --lambda 0.3 --n-max 30 "
        "--grid-n 2000 --source algebraic",
    "panel-verify-case1": "verify --family case1 --alpha 1.0 --lambda 0.1",
    "panel-verify-case2": "verify --family case2 --alpha 1.0 --lambda 10.0",
    "panel-verify-case3": "verify --family case3 --alpha 1.0 --lambda 0.2",
    # the edge probes: a level past the cutoff, two families that bind
    # none, and a deformation far below a double's precision
    "edge-past-cutoff":
        "spectrum --family case1 --alpha 1.0 --lambda 0.1 --n-max 12",
    "edge-case1-lam10": "spectrum --family case1 --alpha 1.0 --lambda 10.0",
    "edge-case2-lam1e-3": "spectrum --family case2 --alpha 1.0 --lambda 0.001",
    "edge-case1-lam1e-300": "spectrum --family case1 --alpha 1.0 --lambda 1e-300",
    # spectrum classes
    "case1-weak":
        "spectrum --family case1 --alpha 1.25 --lambda 0.0375 --n-max 11 "
        "--grid-n 8000 --tail-tolerance 1e-09 --format both --output-dir out",
    "case1-lam0.3":
        "spectrum --family case1 --alpha 1.0 --lambda 0.33 --format json",
    "case1-default":
        "spectrum --family case1 --alpha 1.0 --lambda 0.07 --grid-n 2000",
    "case1-compact":
        "spectrum --family case1 --alpha 0.8 --lambda -0.3 --n-max 19 "
        "--grid-n 2000 --tail-tolerance 1e-06",
    "case2-weak":
        "spectrum --family case2 --alpha 2.0 --lambda 20.0 --n-max 15 "
        "--grid-n 4000 --format both --output-dir out",
    "case2-strong":
        "spectrum --family case2 --alpha 0.5 --lambda 16.0 --n-max 4 "
        "--grid-n 2000 --format json",
    "case2-compact":
        "spectrum --family case2 --alpha 1.1 --lambda -7.5 --n-max 5 "
        "--grid-n 8000 --tail-tolerance 1e-06 --output-dir out",
    "case3-weak":
        "spectrum --family case3 --alpha 0.9 --lambda -0.25 --n-max 19 --grid-n 4000",
    "case3-strong":
        "spectrum --family case3 --alpha 1.6 --lambda 1.2 --n-max 3 "
        "--grid-n 8000 --format both",
    "case3-coarse":
        "spectrum --family case3 --alpha 0.7 --lambda 0.6 --n-max 7 "
        "--grid-n 2000 --tail-tolerance 1e-09 --format json --output-dir out",
    "constant-many":
        "spectrum --family constant --alpha 1.3 --lambda 0.0 --n-max 17 --grid-n 2000",
    "constant-fine":
        "spectrum --family constant --alpha 0.6 --lambda 0.0 --n-max 0 --grid-n 8000",
    "compare-case1":
        "compare-ordering --family case1 --alpha 1.0 --lambda 0.05 --n-max 4 "
        "--grid-n 2000 --tail-tolerance 1e-06 --ordering=-0.25,-0.25,-0.5",
    "compare-case3":
        "compare-ordering --family case3 --alpha 1.4 --lambda -0.3 --n-max 5 "
        "--grid-n 2000 --tail-tolerance 1e-06 --format both "
        "--ordering=0.0,-1.0,0.0 --ordering=-0.75,0.0,-0.25",
    "long-constant":
        "spectrum --family constant --alpha 1.0 --lambda 0.0 --n-max 0 "
        "--grid-n 16000 --format json",
    "long-case3":
        "spectrum --family case3 --alpha 1.2 --lambda 0.5 --n-max 1 --grid-n 24000",
    "long-case2":
        "spectrum --family case2 --alpha 1.0 --lambda 25.0 --n-max 2 "
        "--grid-n 16000 --format both",
    "vec-constant":
        "eigenfunctions --family constant --alpha 0.75 --lambda 0.0 --n-max 2 "
        "--grid-n 32000 --output-dir out --source numeric",
    "vec-case1-compact":
        "eigenfunctions --family case1 --alpha 1.5 --lambda -0.2 --n-max 1 "
        "--grid-n 16000 --format both --output-dir out --source numeric",
    "vec-case2":
        "eigenfunctions --family case2 --alpha 1.0 --lambda 12.0 --n-max 0 "
        "--grid-n 24000 --source numeric",
    "vec-case3":
        "eigenfunctions --family case3 --alpha 0.9 --lambda -0.6 --n-max 1 "
        "--grid-n 32001 --format both --output-dir out --source numeric",
    # closed-form classes
    "eig-constant":
        "eigenfunctions --family constant --alpha 1.1 --lambda 0.0 --n-max 40 "
        "--grid-n 8000 --output-dir out --source algebraic",
    "eig-case3":
        "eigenfunctions --family case3 --alpha 0.8 --lambda 0.4 --n-max 30 "
        "--grid-n 4000 --format both --output-dir out --source algebraic",
    "eig-case1-compact":
        "eigenfunctions --family case1 --alpha 1.3 --lambda -0.25 --n-max 20 "
        "--grid-n 4000 --format json --output-dir out --source algebraic",
    "eig-case2-compact":
        "eigenfunctions --family case2 --alpha 0.7 --lambda -10.0 --n-max 10 "
        "--grid-n 16001 --output-dir out --source algebraic",
    "eig-case1":
        "eigenfunctions --family case1 --alpha 1.2 --lambda 0.06 --n-max 5 "
        "--grid-n 8000 --format json --output-dir out --source algebraic",
    "eig-case2":
        "eigenfunctions --family case2 --alpha 0.8 --lambda 25.0 --n-max 8 "
        "--grid-n 4000 --format both --output-dir out --source algebraic",
    "poly-case1": "polynomials --family case1 --alpha 1.4 --lambda 0.1 --n-max 40",
    "poly-case3":
        "polynomials --family case3 --alpha 0.6 --lambda -0.5 --n-max 30 --symbolic",
    "poly-case2":
        "polynomials --family case2 --alpha 1.9 --lambda 20.0 --n-max 20 --symbolic",
    "poly-constant":
        "polynomials --family constant --alpha 1.0 --lambda 0.0 --n-max 35",
    "verify-case1":
        "verify --family case1 --alpha 1.0 --lambda 0.05 --grid-n 32000 "
        "--output-dir out",
    "verify-case3": "verify --family case3 --alpha 1.0 --lambda 0.3 --grid-n 200000",
    "verify-case2": "verify --family case2 --alpha 1.0 --lambda 15.0 --grid-n 100000",
    "verify-constant":
        "verify --family constant --alpha 1.1 --lambda 0.0 --grid-n 16000 "
        "--output-dir out",
    "eig-constant-coarse":
        "eigenfunctions --family constant --alpha 0.9 --lambda 0.0 --n-max 25 "
        "--grid-n 4000 --format json --output-dir out --source algebraic",
    "eig-case3-fine":
        "eigenfunctions --family case3 --alpha 1.2 --lambda -0.7 --n-max 12 "
        "--grid-n 16000 --format both --output-dir out --source algebraic",
    "poly-case1-symbolic":
        "polynomials --family case1 --alpha 0.7 --lambda 0.15 --n-max 25 --symbolic",
    "poly-case3-long":
        "polynomials --family case3 --alpha 1.5 --lambda 0.8 --n-max 40",
    "verify-case1-compact":
        "verify --family case1 --alpha 0.9 --lambda -0.3 --grid-n 50000",
    "verify-case3-coarse":
        "verify --family case3 --alpha 1.0 --lambda -0.4 --grid-n 16000 "
        "--output-dir out",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def entry(argv: str) -> dict:
    """The exit code of one request and the digests of what it wrote, run
    in the current directory, which must hold no `out`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv.split())
    files = {p.name: _digest(p.read_bytes())
             for p in sorted(Path("out").glob("*"))}
    return {"exit": code, "stdout": _digest(out.getvalue().encode()),
            "stderr": _digest(err.getvalue().encode()), "files": files}


def ledger_text(entries: dict) -> str:
    """The ledger as JSON, one request a line, so a diff names each one."""
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in entries.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_the_ledger_lists_every_request():
    assert list(json.loads(LEDGER.read_text())) == list(REQUESTS)


def test_the_ledger_follows_the_benchmark():
    # the ledger samples the benchmark: its panel and edge requests are the
    # benchmark's own, in order, and the rest are one of each class a
    # block draws, so a class added to or dropped from the benchmark, or a
    # panel request changed there, shows here
    workloads = runpy.run_path(
        str(LEDGER.parent.parent / "perfbench" / "workloads.py"))
    names = list(workloads["WORKLOADS"])

    def ledger(prefix):
        return [v for k, v in REQUESTS.items() if k.startswith(prefix)]

    def argvs(requests):
        return [" ".join(r.argv("out")) for r in requests]

    assert ledger("panel-") == argvs(workloads["PANEL"])
    assert ledger("edge-") == argvs(
        [p for w in names for p in workloads["probes"](w)])
    drawn = [r.label for w in names
             for r in workloads["block"](w, random.Random(0))]
    classes = [k for k in REQUESTS if not k.startswith(("panel-", "edge-"))]
    assert sorted(classes) == sorted(drawn)


@pytest.mark.parametrize("label", list(REQUESTS))
def test_output_bytes_match_the_ledger(label, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert entry(REQUESTS[label]) == json.loads(LEDGER.read_text())[label]


def main(argv: list) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    entries, cwd = {}, os.getcwd()
    for label, request in REQUESTS.items():
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                entries[label] = entry(request)
            finally:
                os.chdir(cwd)
    LEDGER.write_text(ledger_text(entries))
    print(f"wrote {len(entries)} digests to {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
