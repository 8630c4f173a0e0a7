"""pdemosc benchmark: closed loop, one client, one request process at a time.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 40 --trace 0

Run from the root of a pdemosc checkout (the program is taken from
./src).  Each request is its own ``python -m pdemosc ...`` process, as a
user runs it; the next starts when the previous one has exited, so at most
one core is busy with the program.  Requests come in blocks of one request
per class (see workloads.py).  A run is a whole number of blocks: as many
as took --seconds at the seed commit, so every run has the same mix and
the same number of requests.  The workload's edge probes run once after
the blocks and count in ok_frac, not in the latencies.

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics: every request then runs twice, untraced and through
trace_boot.py (alternating which goes first), and a micro-run times single
layers through public calls.  Every output is checked (check.py); the
accuracy metrics come from a fixed panel (workloads.PANEL, oracle.py),
run untimed inside the benchmark process.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Scratch files
go to .bench_work/ in the checkout; the traced run leaves its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads

# numpy, scipy, mpmath and the checker are imported in main(), after the
# spawner has started: a child's peak RSS starts from its spawner's.

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"
OUT_DIR = os.path.join(WORK, "out")
HERE = os.path.dirname(os.path.abspath(__file__))
REQUEST_TIMEOUT_S = 120.0
SETUP_SAMPLES = 3          # before the loop and after every block
REPEATS = 2
# Seconds one block (one request of every class) takes at the seed commit
# on the 2-core machine the benchmark was tuned on, in its slower phases
# (its speed drifts by a factor of up to 1.6 over minutes).
BLOCK_SECONDS = {"spectrum": 19.5, "closed-form": 13.5}
clock = time.monotonic
# Every process the benchmark starts runs numpy's BLAS on one thread.  With
# the default (one thread per core) a request's wall time depends on whether
# the host hands it the second core: on a shared 2-core machine, consecutive
# runs of one request varied by over 20 % that way, and by 1 % on one thread.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


class Runner:
    """Runs request processes through spawner.py and keeps what each returned."""

    def __init__(self):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        self.spawner = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")], env=self.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.checker = None
        self.results = []

    def close(self):
        self.spawner.stdin.close()
        self.spawner.wait(timeout=REQUEST_TIMEOUT_S + 10)
        self.spawner.stdout.close()

    def spawn(self, argv):
        """Run one process to completion: (spawner reply, stdout, stderr)."""
        out_path = os.path.join(WORK, "stdout")
        err_path = os.path.join(WORK, "stderr")
        job = {"argv": [sys.executable] + argv, "stdout": out_path,
               "stderr": err_path, "timeout": REQUEST_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(job) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise SystemExit("the spawner process died")
        with open(out_path, "rb") as fh:
            out = fh.read()
        with open(err_path, "rb") as fh:
            err = fh.read()
        return json.loads(line), out, err

    def execute(self, req, traced=False):
        shutil.rmtree(OUT_DIR, ignore_errors=True)
        if traced:
            spans_path = os.path.join(WORK, "trace.json")
            if os.path.exists(spans_path):
                os.remove(spans_path)
            argv = [os.path.join(HERE, "trace_boot.py"), spans_path, "--"]
        else:
            argv = ["-m", "pdemosc"]
        reply, out, err = self.spawn(argv + req.argv(OUT_DIR))
        rc = reply["rc"]
        parsed, failure = self.checker.check(req, rc, out, err, OUT_DIR)
        res = {"req": req, "rc": rc, "wall": reply["wall"], "rss_kb": reply["maxrss_kb"],
               "traced": traced, "failure": failure, "parsed": parsed}
        digest = hashlib.sha256(out)
        size = len(out)
        if os.path.isdir(OUT_DIR):
            for name in sorted(os.listdir(OUT_DIR)):
                with open(os.path.join(OUT_DIR, name), "rb") as fh:
                    blob = fh.read()
                digest.update(name.encode() + b"\0" + blob)
                size += len(blob)
        res["digest"], res["bytes_out"] = digest.hexdigest(), size
        if traced:
            if os.path.exists(spans_path):
                res["trace"] = read_trace(spans_path)
                res["wall"] -= res["trace"]["post_s"]
            elif not res["failure"]:
                res["failure"] = f"{req.label}: the traced run wrote no spans"
        self.results.append(res)
        return res

    def execute_here(self, req):
        """Run one request inside this process: the untimed accuracy panel."""
        from pdemosc import cli

        shutil.rmtree(OUT_DIR, ignore_errors=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.run(req.argv(OUT_DIR))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:   # reported by the checker as a traceback
                traceback.print_exc()
                rc = 1
        parsed, failure = self.checker.check(req, rc, out.getvalue().encode(),
                                             err.getvalue().encode(), OUT_DIR)
        res = {"req": req, "rc": rc, "traced": False, "failure": failure,
               "parsed": parsed}
        self.results.append(res)
        return res

    def setup_times(self, samples):
        """Seconds from spawning a fresh interpreter until `import pdemosc` returns."""
        code = "import time, pdemosc; print(repr(time.monotonic()))"
        times = []
        for _ in range(samples):
            reply, out, err = self.spawn(["-c", code])
            if reply["rc"] != 0:
                raise SystemExit("cannot import pdemosc from ./src:\n" + err.decode())
            times.append(float(out) - reply["t0"])
        return times


def read_trace(spans_path):
    """Spans of one traced request, with the LAPACK oracle on its eigen calls."""
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    base = spans_path[:-len(".json")]
    with open(spans_path) as fh:
        doc = json.load(fh)
    dev = res = 0.0
    if doc["eigen_calls"]:
        with np.load(base + ".npz") as arrays:
            for i in range(doc["eigen_calls"]):
                diag, off = arrays[f"diag{i}"], arrays[f"off{i}"]
                vals, vecs = arrays[f"vals{i}"], arrays[f"vecs{i}"]
                ref = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                                       select_range=(0, len(vals) - 1))
                dev = max(dev, float(np.max(np.abs(ref - vals))))
                for lam, v in zip(vals, vecs):
                    u = v / np.linalg.norm(v)
                    tu = diag * u
                    tu[:-1] += off * u[1:]
                    tu[1:] += off * u[:-1]
                    res = max(res, float(np.max(np.abs(tu - lam * u))))
        os.remove(base + ".npz")
    doc["lapack_dev"], doc["residual"] = dev, res
    return doc


def blocks_for(workload, seconds, runs_per_request):
    """Whole blocks that fit in `seconds` at the seed commit.

    The count depends on --seconds only, so every seed and both commits of
    a comparison measure the same mix and the same number of requests
    (which fixes the tail percentile).  A faster program ends sooner.
    """
    return max(1, round(seconds / (BLOCK_SECONDS[workload] * runs_per_request)))


def run_blocks(runner, workload, rng, seconds, between):
    """Run whole blocks; `between` runs after each.  Returns (blocks, results)."""
    blocks = blocks_for(workload, seconds, 1)
    results = []
    for _ in range(blocks):
        results += [runner.execute(req) for req in workloads.block(workload, rng)]
        between()
    return blocks, results


def run_traced(runner, workload, rng, seconds):
    """Run whole blocks once traced and once not, alternating which goes first."""
    blocks = blocks_for(workload, seconds, 2)
    index = 0
    for _ in range(blocks):
        for req in workloads.block(workload, rng):
            plain_first = index % 2 == 0
            first = runner.execute(req, traced=not plain_first)
            second = runner.execute(req, traced=plain_first)
            if first["digest"] != second["digest"] and not second["failure"]:
                second["failure"] = f"{req.label}: traced output differs"
            index += 1
    return blocks


def tail(values):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _or_nan(stat, values):
    """stat(values), or NaN when failed panel requests left nothing to measure."""
    return stat(values) if values else float("nan")


# === end-to-end run ===

def end_to_end(runner, pdem, workload, seed, seconds, report):
    from oracle import sample_error

    runner.setup_times(1)   # fills caches (and __pycache__ in a fresh checkout)
    setup = runner.setup_times(SETUP_SAMPLES)
    rng = random.Random(f"{workload}:{seed}")
    t_run = clock()
    blocks, timed = run_blocks(runner, workload, rng, seconds,
                               lambda: setup.extend(runner.setup_times(SETUP_SAMPLES)))
    report.append(f"{len(timed)} requests in {blocks} blocks in {clock() - t_run:.1f} s")

    # repeat a sample of the cheaper requests: output must be byte-identical
    cheap = sorted(timed, key=lambda r: r["wall"])[: max(REPEATS, len(timed) // 2)]
    repeats = []
    for first in rng.sample(cheap, REPEATS):
        again = runner.execute(first["req"])
        if again["digest"] != first["digest"] and not again["failure"]:
            again["failure"] = f"{first['req'].label}: repeated output differs"
        repeats.append(again)
    edge = [runner.execute(req) for req in workloads.probes(workload)]

    t_panel = clock()
    panel = [runner.execute_here(req) for req in workloads.PANEL]
    report.append(f"panel {len(panel)} requests in {clock() - t_panel:.1f} s")
    alg_err, samples, margins = [], [], []
    for res in panel:
        parsed = res["parsed"]
        if "num" in parsed:
            alg_err += [abs(a - b) for a, b in zip(parsed["alg"], parsed["num"])]
        if "phi" in parsed:
            samples.append(sample_error(pdem, res["req"], parsed["x"], parsed["phi"]))
        margins += parsed.get("margins", [])

    lat = [r["wall"] for r in timed]
    executed = timed + repeats + edge
    failed_all = sum(1 for r in executed if r["failure"])
    tail_v, tail_p = tail(lat)
    n = len(timed)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail_v, "s"),
        "requests_per_s": (n / sum(lat), "1/s"),
        "ok_frac": (1.0 - failed_all / len(executed), "1"),
        "peak_rss_mb": (max(r["rss_kb"] for r in executed) / 1024.0, "MB"),
        "energy_err_max": (_or_nan(max, alg_err), "1"),
        "energy_err_p50": (_or_nan(statistics.median, alg_err), "1"),
        "sample_err_max": (_or_nan(max, samples), "1"),
        "verify_margin_max": (_or_nan(max, margins), "1"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "latency_p50_s": f"n={n} requests in {blocks} blocks",
        "latency_tail_s": f"p{tail_p:.0f}, n={n}, 10 beyond",
        "requests_per_s": f"{n} requests / {sum(lat):.2f} s in request processes",
        "ok_frac": f"1 - failed_frac; {failed_all} of {len(executed)} failed, "
                   f"{sum(1 for r in edge if r['failure'])} of {len(edge)} edge probes",
        "peak_rss_mb": f"max over {len(executed)} requests",
        "energy_err_max": f"panel, {len(alg_err)} levels",
        "energy_err_p50": f"panel, {len(alg_err)} levels",
        "sample_err_max": f"panel, {len(samples)} requests",
        "verify_margin_max": f"panel, {len(margins)} residuals",
    }
    report.append(f"failed_frac {failed_all / len(executed):.6g} 1 "
                  f"({failed_all} of {len(executed)})")
    by_class = {}
    for r in timed:
        by_class.setdefault(r["req"].label, []).append(r["wall"])
    for label, walls in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1])):
        report.append(f"class {label} p50 {statistics.median(walls):.4f} s (n={len(walls)})")
    own = [abs(a - b) for r in timed if "num" in r["parsed"]
           for a, b in zip(r["parsed"]["alg"], r["parsed"]["num"])]
    if own:
        report.append(f"workload energy_err_max {max(own):.6g} 1, "
                      f"p50 {statistics.median(own):.6g} 1 ({len(own)} levels)")
    return metrics, notes


# === traced run ===

def layer_of(name):
    mod, fn = name.split(".", 1)
    if mod == "discrete":
        if fn == "eigen_tridiagonal":
            return "discrete.eigen"
        if fn in ("build_grid", "uniform_grid"):
            return "discrete.build_grid"
        if fn.startswith("assemble") or fn == "von_roos_asymmetry":
            return "discrete.assemble"
        return "discrete.other"
    if mod == "polynomials":
        return "polynomials.sample" if fn == "eigenfunction_samples" else "polynomials.exact"
    if mod == "susy":
        return "susy.verify"
    return mod


LAYER_COUNTERS = {
    "discrete.eigen": ("pairs", "eigenpairs"),
    "discrete.build_grid": ("nodes", "nodes"),
    "discrete.assemble": ("nodes", "nodes"),
    "polynomials.exact": ("degree", "degree_sum"),
    "polynomials.sample": ("samples", "samples"),
}
ENTRY_SPANS = {
    "discrete.eigen": {"discrete.eigen_tridiagonal"},
    "discrete.build_grid": {"discrete.build_grid"},
    "discrete.assemble": {"discrete.assemble_sturm_liouville",
                          "discrete.assemble_von_roos"},
    "polynomials.exact": {"polynomials.gf_polynomial",
                          "polynomials.rodrigues_polynomial"},
    "polynomials.sample": {"polynomials.eigenfunction_samples"},
    "susy.verify": {"susy.verify_all"},
}
VERIFY_PARTS = ["factorization", "annihilation", "intertwining", "superalgebra",
                "shift_identity"]


def aggregate(traced):
    """Per-request means of layer self time and counters over traced requests."""
    self_s, calls, counts = {}, {}, {}
    parts = dict.fromkeys(VERIFY_PARTS, 0.0)
    pair_nodes = run_s = matmuls = import_s = bytes_out = 0.0
    lapack = resid = 0.0
    for res in traced:
        doc = res["trace"]
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, ctr) in enumerate(spans):
            layer = layer_of(name)
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[i]
            if layer == "families" or name in ENTRY_SPANS.get(layer, ()):
                calls[layer] = calls.get(layer, 0) + 1
            if ctr:
                if layer in LAYER_COUNTERS:
                    key = LAYER_COUNTERS[layer][0]
                    counts[layer] = counts.get(layer, 0) + ctr.get(key, 0)
                if layer == "discrete.eigen":
                    pair_nodes += ctr["pairs"] * ctr["nodes"]
            if name.startswith("susy.verify_") and name[12:] in parts:
                parts[name[12:]] += end - start
            if name == "cli.run":
                run_s += end - start
        matmuls += doc["matmuls"]
        import_s += doc["import_s"]
        bytes_out += res["bytes_out"]
        lapack = max(lapack, doc["lapack_dev"])
        resid = max(resid, doc["residual"])
    n = max(1, len(traced))
    m = {}
    for layer in ("discrete.eigen", "discrete.build_grid", "discrete.assemble",
                  "polynomials.exact", "polynomials.sample", "susy.verify", "families"):
        m[f"{layer}.calls"] = (calls.get(layer, 0) / n, "count/req")
        m[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / n, "s/req")
        if layer in LAYER_COUNTERS:
            m[f"{layer}.{LAYER_COUNTERS[layer][1]}"] = (counts.get(layer, 0) / n, "count/req")
    eig = self_s.get("discrete.eigen", 0.0)
    m["discrete.eigen.us_per_pair_node"] = (1e6 * eig / pair_nodes if pair_nodes else 0.0, "us")
    m["discrete.eigen.lapack_dev_max"] = (lapack, "1")
    m["discrete.eigen.residual_max"] = (resid, "1")
    m["discrete.eigen.share"] = (eig / run_s if run_s else 0.0, "1")
    m["susy.verify.banded_matmuls"] = (matmuls / n, "count/req")
    for part in VERIFY_PARTS:
        m[f"susy.verify.{part}_s"] = (parts[part] / n, "s/req")
    m["cli.self_s"] = (self_s.get("cli", 0.0) / n, "s/req")
    m["cli.bytes_out"] = (bytes_out / n, "B/req")
    m["cli.run_s"] = (run_s / n, "s/req")
    m["import.import_s"] = (import_s / n, "s/req")
    return m


def traced_run(runner, workload, seed, seconds, report):
    micro = subprocess.run([sys.executable, os.path.join(HERE, "micro.py")],
                           env=runner.env, capture_output=True, text=True,
                           timeout=120)
    if micro.returncode != 0:
        raise SystemExit("micro-run failed:\n" + micro.stderr)
    rng = random.Random(f"{workload}:{seed}")
    blocks = run_traced(runner, workload, rng, seconds)
    traced = [r for r in runner.results if "trace" in r]
    plain = [r for r in runner.results if not r["traced"]]
    m = aggregate(traced)
    t50 = _or_nan(statistics.median, [r["wall"] for r in traced])
    p50 = statistics.median(r["wall"] for r in plain)
    m["trace.requests"] = (len(traced), "count")
    m["trace.latency_p50_s"] = (t50, "s")
    m["trace.untraced_p50_s"] = (p50, "s")
    m["trace.overhead_s"] = (t50 - p50, "s")
    for key, value in json.loads(micro.stdout).items():
        m[key] = (value, "s")
    spans_file = os.path.join(WORK, f"spans-{workload}-seed{seed}.json")
    with open(spans_file, "w") as fh:
        json.dump([{"request": i, "argv": r["req"].argv(OUT_DIR),
                    "spans": r["trace"]["spans"]} for i, r in enumerate(traced)], fh)
    report.append(f"traced {len(traced)} requests in {blocks} blocks; spans in {spans_file}")
    return m, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pdemosc", "cli.py")):
        print("error: run from the root of a pdemosc checkout (no src/pdemosc here)",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    runner = Runner()
    try:
        sys.path.insert(0, SRC)
        import pdemosc
        from check import Checker

        runner.checker = Checker(pdemosc)
        report = [f"# pdemosc benchmark: workload {args.workload}, seed {args.seed}, "
                  f"trace {args.trace}, {args.seconds:g} s"]
        if args.trace:
            metrics, notes = traced_run(runner, args.workload, args.seed, args.seconds,
                                        report)
        else:
            metrics, notes = end_to_end(runner, pdemosc, args.workload, args.seed,
                                        args.seconds, report)
    finally:
        runner.close()
    counted = [r for r in runner.results if not r["req"].probe]
    failures = [r["failure"] for r in counted if r["failure"]]
    for res in runner.results:
        if res["failure"]:
            tag = "probe" if res["req"].probe else "FAILED"
            report.append(f"{tag} {res['failure']}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        report.append(f"{name} {value:.6g} {unit}" + (f" ({note})" if note else ""))
    for path in (OUT_DIR, os.path.join(WORK, "stdout"), os.path.join(WORK, "stderr"),
                 os.path.join(WORK, "trace.json")):
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
    print("\n".join(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(counted),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
