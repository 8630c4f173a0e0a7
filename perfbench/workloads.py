"""Requests the benchmark sends, generated from a seed.

A workload is a list of request classes.  One *block* holds one request of
every class, drawn from the seed and shuffled, so every block costs about
the same and a run made of whole blocks has the same mix on every seed.
The class fixes the command, the grid size, the level count and, where
the output is large, its format, which set the cost; the seed picks the
oscillator strength, the deformation inside the class's range, the tail
tolerance, the format of small outputs and the order.

The accuracy panel is fixed (it does not depend on the seed).  Every run
sends it once, untimed, and the accuracy metrics come from it, so they are
the same on every seed and on every workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace


@dataclass
class Request:
    cmd: str                       # pdemosc subcommand
    family: str
    alpha: float = 1.0
    lam: float = 0.0
    n_max: int | None = None       # None: the CLI default min(9, cutoff-1)
    grid_n: int | None = None      # None: the CLI default 4000
    tail: float | None = None      # None: the CLI default 1e-12
    fmt: str = "csv"
    to_dir: bool = False           # write artifacts into --output-dir
    source: str = "algebraic"      # eigenfunctions only
    symbolic: bool = False         # polynomials only
    orderings: tuple = ()          # compare-ordering only: ((a, b, c), ...)
    expect: str = "ok"             # ok | refuse | no-bound
    label: str = ""                # request class, for the report
    probe: bool = False            # edge probe: not counted in `failed`

    def argv(self, out_dir: str) -> list:
        args = [self.cmd, "--family", self.family,
                "--alpha", repr(self.alpha), "--lambda", repr(self.lam)]
        if self.n_max is not None:
            args += ["--n-max", str(self.n_max)]
        if self.grid_n is not None:
            args += ["--grid-n", str(self.grid_n)]
        if self.tail is not None:
            args += ["--tail-tolerance", repr(self.tail)]
        if self.fmt != "csv":
            args += ["--format", self.fmt]
        if self.to_dir:
            args += ["--output-dir", out_dir]
        if self.cmd == "eigenfunctions":
            args += ["--source", self.source]
        if self.symbolic:
            args.append("--symbolic")
        for a, b, c in self.orderings:
            args.append(f"--ordering={a!r},{b!r},{c!r}")
        return args

    @property
    def grid(self) -> int:
        return 4000 if self.grid_n is None else self.grid_n


# === closed-form facts the checker needs, restated independently ===

def unified_q(family: str, alpha: float, lam: float) -> float:
    """q in E_n = alpha[(n + 1/2) - q n(n+1)/2], as the paper defines it."""
    if family == "case1":
        return lam / alpha
    if family == "case2":
        return 1.0 / (alpha * lam)
    if family == "case3":
        return -0.5 * lam * lam / alpha
    return 0.0


def cutoff(family: str, alpha: float, lam: float) -> int | None:
    """Number of bound levels, or None when every level is bound."""
    q = unified_q(family, alpha, lam)
    return max(0, math.ceil(1.0 / q - 0.5)) if q > 0 else None


def levels(req: Request) -> int:
    """Highest level the CLI resolves for req (the default is min(9, cutoff-1))."""
    if req.n_max is not None:
        return req.n_max
    c = cutoff(req.family, req.alpha, req.lam)
    return 9 if c is None else min(9, c - 1)


# === seeded drawing helpers ===

def _alpha(rng):
    return rng.uniform(0.5, 2.0)


def _sign(rng):
    return rng.choice([-1.0, 1.0])


def _deformed(rng, family, q_lo, q_hi):
    """(alpha, lambda) with positive deformation q in [q_lo, q_hi]."""
    alpha = _alpha(rng)
    q = rng.uniform(q_lo, q_hi)
    return alpha, (q * alpha if family == "case1" else 1.0 / (q * alpha))


def _ordering(rng):
    # dyadic exponents, so a + b + c == -1 holds exactly in binary
    a = rng.choice([-0.75, -0.5, -0.25, 0.0])
    c = rng.choice([-0.5, -0.25, 0.0])
    return (a, -1.0 - a - c, c)


def _request(rng, cmd, family, lam, grid, n, label, alpha=None, **kw):
    req = Request(cmd, family, _alpha(rng) if alpha is None else alpha, lam,
                  n_max=n, grid_n=grid, label=label, **kw)
    c = cutoff(req.family, req.alpha, req.lam)
    if n is not None and cmd != "polynomials" and c is not None and n >= c:
        raise ValueError(f"class {label} drew a family with only {c} levels")
    return req


# === spectrum: many-bracket bisection, tiny output ===
# Each class fixes the grid and the level count; together they span
# n-max 0 to 19 and grid-n 2000/4000/8000.  Deformed classes draw q so that
# the cutoff stays above the class's level count.

def _spec(rng, family, lam, grid, n, label, alpha=None):
    return _request(rng, "spectrum", family, lam, grid, n, label, alpha,
                    tail=rng.choice([None, None, 1e-9, 1e-6]),
                    fmt=rng.choice(["csv", "json", "both"]),
                    to_dir=rng.random() < 0.3)


def _spec_q(rng, family, q_lo, q_hi, grid, n, label):
    alpha, lam = _deformed(rng, family, q_lo, q_hi)
    return _spec(rng, family, lam, grid, n, label, alpha=alpha)


def _compare(rng, family, lam, n, count, label, alpha=None):
    return _request(rng, "compare-ordering", family, lam, 2000, n, label, alpha,
                    tail=1e-6, fmt=rng.choice(["csv", "json", "both"]),
                    orderings=tuple(_ordering(rng) for _ in range(count)))


SPECTRUM_CLASSES = [
    lambda r: _spec_q(r, "case1", 0.01, 0.05, 8000, 11, "case1-weak"),
    # the regime ROADMAP flags as inaccurate: lam ~ 0.3 with default flags
    # (cutoff 3, so the default n-max is 2)
    lambda r: Request("spectrum", "case1", 1.0, r.uniform(0.29, 0.39),
                      fmt=r.choice(["csv", "json", "both"]), label="case1-lam0.3"),
    lambda r: Request("spectrum", "case1", 1.0, r.uniform(0.04, 0.095),
                      grid_n=2000, label="case1-default"),
    lambda r: _spec(r, "case1", -r.uniform(0.05, 0.5), 2000, 19, "case1-compact"),
    lambda r: _spec_q(r, "case2", 0.01, 0.05, 4000, 15, "case2-weak"),
    lambda r: _spec_q(r, "case2", 0.1, 0.2, 2000, 4, "case2-strong"),
    lambda r: _spec(r, "case2", -r.uniform(2.0, 20.0), 8000, 5, "case2-compact"),
    lambda r: _spec(r, "case3", _sign(r) * r.uniform(0.05, 0.5), 4000, 19,
                    "case3-weak"),
    lambda r: _spec(r, "case3", _sign(r) * r.uniform(0.5, 1.5), 8000, 3,
                    "case3-strong"),
    lambda r: _spec(r, "case3", _sign(r) * r.uniform(0.05, 1.0), 2000, 7,
                    "case3-coarse"),
    lambda r: _spec(r, "constant", 0.0, 2000, 17, "constant-many"),
    lambda r: _spec(r, "constant", 0.0, 8000, 0, "constant-fine"),
    lambda r: _compare(r, "case1", r.uniform(0.02, 0.1), 4, 1, "compare-case1",
                       alpha=1.0),
    lambda r: _compare(r, "case3", _sign(r) * r.uniform(0.1, 0.5), 5, 2,
                       "compare-case3"),
]

# Inputs that probe the edges of the admissible domain.  They are the same
# on every seed; at the seed commit three of them fail (ROADMAP, "Recent").
# They run once per run and are not timed, so a fix that makes one succeed
# moves ok_frac, not the workload's latencies.
EDGE_PROBES = [
    Request("spectrum", "case1", 1.0, 0.1, n_max=12, expect="refuse",
            label="edge-past-cutoff"),
    Request("spectrum", "case1", 1.0, 10.0, expect="no-bound",
            label="edge-case1-lam10"),
    Request("spectrum", "case2", 1.0, 1e-3, expect="no-bound",
            label="edge-case2-lam1e-3"),
    Request("spectrum", "case1", 1.0, 1e-300, label="edge-case1-lam1e-300"),
]


# === closed-form: exact polynomials, sampling, residual suite ===

def _eig(rng, family, lam, grid, n, fmt, label, alpha=None):
    # the format is the class's, not the seed's: "both" formats twice the data
    return _request(rng, "eigenfunctions", family, lam, grid, n, label, alpha,
                    fmt=fmt, to_dir=True)


def _eig_q(rng, family, q_lo, q_hi, grid, n, fmt, label):
    alpha, lam = _deformed(rng, family, q_lo, q_hi)
    return _eig(rng, family, lam, grid, n, fmt, label, alpha=alpha)


def _poly(rng, family, lam, n, symbolic, label):
    return _request(rng, "polynomials", family, lam, None, n, label,
                    symbolic=symbolic)


def _verify(rng, family, lam, grid, label, alpha=None):
    return _request(rng, "verify", family, lam, grid, None, label, alpha,
                    to_dir=rng.random() < 0.5)


CLOSED_FORM_CLASSES = [
    lambda r: _eig(r, "constant", 0.0, 8000, 40, "csv", "eig-constant"),
    lambda r: _eig(r, "case3", _sign(r) * r.uniform(0.1, 1.0), 4000, 30, "both",
                   "eig-case3"),
    lambda r: _eig(r, "case1", -r.uniform(0.05, 0.5), 4000, 20, "json",
                   "eig-case1-compact"),
    lambda r: _eig(r, "case2", -r.uniform(2.0, 20.0), 16000, 10, "csv",
                   "eig-case2-compact"),
    lambda r: _eig_q(r, "case1", 0.02, 0.1, 8000, 5, "json", "eig-case1"),
    lambda r: _eig_q(r, "case2", 0.02, 0.1, 4000, 8, "both", "eig-case2"),
    lambda r: _poly(r, "case1", r.uniform(0.01, 0.2), 40, False, "poly-case1"),
    lambda r: _poly(r, "case3", _sign(r) * r.uniform(0.1, 1.0), 30, True, "poly-case3"),
    lambda r: _poly(r, "case2", r.uniform(5.0, 50.0), 20, True, "poly-case2"),
    lambda r: _poly(r, "constant", 0.0, 35, False, "poly-constant"),
    lambda r: _verify(r, "case1", r.uniform(0.01, 0.1), 32000, "verify-case1", alpha=1.0),
    lambda r: _verify(r, "case3", _sign(r) * r.uniform(0.1, 0.6), 200000,
                      "verify-case3", alpha=1.0),
    lambda r: _verify(r, "case2", r.uniform(8.0, 30.0), 100000, "verify-case2",
                      alpha=1.0),
    lambda r: _verify(r, "constant", 0.0, 16000, "verify-constant"),
    lambda r: _eig(r, "constant", 0.0, 4000, 25, "json", "eig-constant-coarse"),
    lambda r: _eig(r, "case3", _sign(r) * r.uniform(0.1, 1.0), 16000, 12,
                   "both", "eig-case3-fine"),
    lambda r: _poly(r, "case1", r.uniform(0.01, 0.2), 25, True, "poly-case1-symbolic"),
    lambda r: _poly(r, "case3", _sign(r) * r.uniform(0.1, 1.0), 40, False,
                    "poly-case3-long"),
    lambda r: _verify(r, "case1", -r.uniform(0.05, 0.5), 50000, "verify-case1-compact"),
    lambda r: _verify(r, "case3", _sign(r) * r.uniform(0.1, 0.6), 16000,
                      "verify-case3-coarse", alpha=1.0),
]


# === spectrum, continued: one to three eigenpairs on long matrices ===
# Per-eigenvalue bisection over the Gershgorin range and inverse iteration,
# with no many-bracket refinement, and MB-sized CSV from the numeric
# eigenfunctions.  A change that shares Sturm counts across brackets gains
# on the classes above but not on these (see the per-class report lines).

def _long_spec(rng, family, lam, grid, n, label, alpha=None):
    return _request(rng, "spectrum", family, lam, grid, n, label, alpha,
                    fmt=rng.choice(["csv", "json", "both"]))


def _long_vec(rng, family, lam, grid, n, fmt, to_dir, label, alpha=None):
    return _request(rng, "eigenfunctions", family, lam, grid, n, label, alpha,
                    fmt=fmt, to_dir=to_dir, source="numeric")


LONG_CLASSES = [
    lambda r: _long_spec(r, "constant", 0.0, 16000, 0, "long-constant"),
    lambda r: _long_spec(r, "case3", _sign(r) * r.uniform(0.1, 1.0), 24000, 1,
                         "long-case3"),
    lambda r: _long_spec(r, "case2", r.uniform(5.0, 50.0), 16000, 2, "long-case2",
                         alpha=1.0),
    lambda r: _long_vec(r, "constant", 0.0, 32000, 2, "csv", True, "vec-constant"),
    lambda r: _long_vec(r, "case1", -r.uniform(0.05, 0.5), 16000, 1, "both", True,
                        "vec-case1-compact"),
    lambda r: _long_vec(r, "case2", r.uniform(5.0, 50.0), 24000, 0, "csv", False,
                        "vec-case2", alpha=1.0),
    lambda r: _long_vec(r, "case3", _sign(r) * r.uniform(0.1, 1.0), 32000, 1, "both",
                        True, "vec-case3"),
]

WORKLOADS = {
    "spectrum": (SPECTRUM_CLASSES + LONG_CLASSES, EDGE_PROBES),
    "closed-form": (CLOSED_FORM_CLASSES, []),
}


def block(workload: str, rng: random.Random) -> list:
    """One request of every class, in seeded order."""
    reqs = [make(rng) for make in WORKLOADS[workload][0]]
    rng.shuffle(reqs)
    return reqs


def probes(workload: str) -> list:
    """The workload's edge probes, run once per run and not timed."""
    return [replace(p, probe=True) for p in WORKLOADS[workload][1]]


# === the accuracy panel: fixed inputs, run once per run, untimed ===

PANEL = [
    Request("spectrum", "case1", 1.0, 0.1, n_max=9, label="panel"),
    Request("spectrum", "case1", 1.0, 0.3, label="panel"),
    Request("spectrum", "case2", 1.0, 10.0, n_max=9, label="panel"),
    Request("spectrum", "case3", 1.0, 0.2, n_max=14, grid_n=2000, label="panel"),
    Request("spectrum", "constant", 1.0, 0.0, n_max=19, grid_n=2000, label="panel"),
    Request("eigenfunctions", "constant", 1.0, 0.0, n_max=40, grid_n=2000,
            label="panel"),
    Request("eigenfunctions", "case1", 1.0, 0.02, n_max=20, grid_n=2000,
            label="panel"),
    Request("eigenfunctions", "case3", 1.0, 0.3, n_max=30, grid_n=2000,
            label="panel"),
    Request("verify", "case1", 1.0, 0.1, label="panel"),
    Request("verify", "case2", 1.0, 10.0, label="panel"),
    Request("verify", "case3", 1.0, 0.2, label="panel"),
]
