"""SimRank benchmark: seeded workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload serve-exact --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

One run builds its graph from --seed in-process, hands the program only the
edge-list text, and plays one single-threaded client in a closed loop, one
request at a time.  After a warm-up on a 60-vertex graph it runs ROUNDS rounds
of set-ups, a fifth of the workload's seeded requests, all-pairs exports and
joins, so each metric samples the whole run.  The work of a run is fixed:
``Spec.requests`` (scaled by --seconds/10) and ``Spec.reps`` set how many
requests, set-ups and batch requests it times, not the program's speed, so
every commit reports each statistic over the same number of samples.
Outputs are checked against references after everything timed has finished.

--trace 0 reports the end-to-end metrics declared in BENCHMARK.json.  --trace 1
runs a fixed prefix of the same requests twice, untraced and traced, and
reports the per-layer metrics plus the tracing overhead (traced wall time minus
untraced).  ``--workload all`` runs every workload in its own process.

Standard output: a metric table (name, value, unit, direction), one ``detail``
JSON line with provenance, percentiles, sample counts and failures, and as the
last line {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
TAIL_BEYOND = 10            # a tail percentile keeps at least 10 samples beyond it
TAIL_MAX = 90.0             # above p90, second-long host stalls decide the tail
ROUNDS = 5
REF_SECONDS = 10.0          # Spec.requests are the counts of a --seconds 10 run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, nargs=2, metavar=("N", "M"),
                    help="override the workload's graph size (smoke tests)")
    args = ap.parse_args(argv)

    if not (SRC / "simrank" / "__init__.py").is_file():
        print(f"error: no simrank sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, declared)

    sys.path[:0] = [str(SRC), str(BENCH)]
    import simrank
    if Path(simrank.__file__).resolve().parent != SRC / "simrank":
        print(f"error: imported simrank from {simrank.__file__}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    spec = workloads.SPECS[args.workload]
    if args.size:
        spec = spec.scaled(*args.size)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: (m["unit"], m["better"]) for m in declared[kind]}

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{spec.name}-", dir=WORK)
    try:
        run = Run(spec, args.seed, workdir)
        if args.trace:
            metrics, detail = run.traced()
        else:
            metrics, detail = run.timed(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 1
    detail["provenance"] = provenance(args)
    result = {
        "correct": not detail["failures"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                    for name in units},
    }
    print_table(spec.name, metrics, units, detail)
    print(json.dumps({"detail": detail}, default=float))
    print(json.dumps(result, allow_nan=False))
    return 0


class Run:
    """One workload run: inputs from the seed, the session, and the checks."""

    def __init__(self, spec, seed: int, workdir: str):
        import simrank.graph as graph
        import workloads

        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.text = workloads.make_text(spec, seed)
        self.g = graph.load_edge_list(self.text)   # the benchmark's own copy
        self.g.P  # noqa: B018 - built here so that no traced span covers it
        self.cfg = graph.Config(c=workloads.C, T=workloads.T, seed=seed)
        self.stream = workloads.request_stream(self.g, seed, spec.requests)
        self.failures: list[tuple[int, str, str]] = []
        self.attempted = 0

    def session(self):
        import workloads
        return workloads.session(self.spec, self.text, self.seed, self.workdir)

    # ------------------------------------------------------------ phases

    def _serve(self, sess, req, log) -> None:
        from checks import parse_cli
        self.attempted += 1
        try:
            start = perf_counter()
            out = sess.serve(req)
            elapsed = perf_counter() - start
            if isinstance(out, str):
                out = parse_cli(req.kind, out, self.g.n)
        except Exception as exc:  # a failed request is counted, not fatal
            log.fail(req, f"raised {type(exc).__name__}: {exc}")
            return
        log.record(req, elapsed, out)

    def _batch(self, sess, name: str):
        self.attempted += 1
        start = perf_counter()
        try:
            out = getattr(sess, name)()
        except Exception as exc:
            self.failures.append((0, name, f"raised {type(exc).__name__}: {exc}"))
            return None, perf_counter() - start
        return out, perf_counter() - start

    def _check(self, sess, log, allpairs_out, join_out) -> "object":
        from checks import Checks, Reference, read_diagonal, read_join_tsv

        if hasattr(sess, "D"):
            D = sess.D.as_array()
        else:
            D = read_diagonal(sess.diag_path)
        ref = Reference(self.spec.name, self.g, D, self.cfg)
        checks = Checks(ref)
        candidates = sess.index.candidates if getattr(sess, "index", None) else None
        checks.requests(log, candidates)
        if allpairs_out is not None:
            checks.allpairs(allpairs_out, 0)
        if join_out is not None:
            J_L, verified = (read_join_tsv(join_out) if isinstance(join_out, str)
                             else join_out)
            checks.join(J_L, verified, 0)
        self.failures += log.failures + checks.failures
        return checks

    def _detail(self, extra: dict) -> dict:
        import workloads
        keys = {(rid, kind) for rid, kind, _ in self.failures}
        return {"workload": self.spec.name, "why": self.spec.why,
                "graph": workloads.graph_stats(self.g),
                "attempted": self.attempted, "failed": len(keys),
                "failures": [f"{kind} request {rid}: {msg}"
                             for rid, kind, msg in self.failures[:20]],
                **extra}

    def timed(self, seconds: float):
        """ROUNDS rounds of set-ups, a fifth of the request prefix, all-pairs
        exports and joins."""
        import workloads
        from checks import OutputLog

        spec = self.spec
        self.warm_up()
        counts = {kind: max(1, round(c * seconds / REF_SECONDS))
                  for kind, c in spec.requests.items()}
        stream = workloads.request_stream(self.g, self.seed, counts)
        total = sum(counts.values())
        requests = [next(stream) for _ in range(total)]
        log = OutputLog(self.workdir, self.g.n)
        reps = {"setup": [], "allpairs": [], "join": []}
        outputs = {}

        # Reps are spread over the run, since host speed drifts in phases of
        # 1-30 s.  Joins are counted from the last round: a join's allocations
        # slow the work after it (cli-batch all-pairs 0.10 -> 0.16 s).
        def due(phase, i):
            """Reps of ``phase`` in round i: Spec.reps spread evenly, from round 0."""
            r = spec.reps[phase]
            return (-i * r) // ROUNDS - (-(i + 1) * r) // ROUNDS

        for i in range(ROUNDS):
            for _ in range(due("setup", i)):
                sess = self.session()
                gc.collect()
                self.attempted += 1
                start = perf_counter()
                sess.setup()
                reps["setup"].append(perf_counter() - start)
            gc.collect()
            for req in requests[i * total // ROUNDS:(i + 1) * total // ROUNDS]:
                self._serve(sess, req, log)
            for phase, due_now in (("allpairs", due("allpairs", i)),
                                   ("join", due("join", ROUNDS - 1 - i))):
                for _ in range(due_now):
                    gc.collect()
                    outputs[phase], elapsed = self._batch(sess, phase)
                    reps[phase].append(elapsed)
        log.close()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        checks = self._check(sess, log, outputs["allpairs"], outputs["join"])
        metrics = {"setup_s": median(reps["setup"]),
                   "allpairs_s": median(reps["allpairs"]),
                   "join_s": median(reps["join"]),
                   "peak_rss_mb": peak_rss_mb,
                   "topk_recall": fmean(checks.recalls),
                   "join_precision": checks.precision,
                   "join_recall": checks.recall}
        timings = {f"{phase}_s": {"statistic": "median", "samples": len(v), "values": v}
                   for phase, v in reps.items()}
        for kind in ("pair", "source", "topk"):
            lat = sorted(log.latency[kind])
            pct, tail = tail_of(lat)
            metrics[f"{kind}_p50_ms"] = median(lat)
            metrics[f"{kind}_tail_ms"] = tail
            timings[f"{kind}_p50_ms"] = {"percentile": 50, "samples": len(lat)}
            timings[f"{kind}_tail_ms"] = {"percentile": pct, "samples": len(lat)}
        quality = {"diag_residual_max": checks.ref.diag_residual,
                   "score_err_max": checks.score_err}
        return metrics, self._detail({"timings": timings, "quality": quality})

    def fixed_pass(self, requests, tracer=None):
        """Set-up, the given requests, all-pairs and join, with no time limit."""
        from checks import OutputLog

        sess = self.session()
        log = OutputLog(self.workdir, self.g.n)
        gc.collect()
        self.attempted += 1
        start = perf_counter()
        sess.setup()
        for req in requests:
            if tracer:
                tracer.request = req.rid
            self._serve(sess, req, log)
        if tracer:
            tracer.request = len(requests) + 1
        allpairs_out, _ = self._batch(sess, "allpairs")
        if tracer:
            tracer.request = len(requests) + 2
        join_out, _ = self._batch(sess, "join")
        elapsed = perf_counter() - start
        log.close()
        return elapsed, sess, log, allpairs_out, join_out

    def warm_up(self) -> None:
        """First-call costs (lazy imports, allocator growth) paid on a tiny
        graph, outside every measurement."""
        tiny = Run(self.spec.scaled(60, 200), self.seed, self.workdir)
        tiny.fixed_pass([next(tiny.stream) for _ in range(20)])

    def traced(self):
        from tracing import Tracer

        requests = [next(self.stream) for _ in range(self.spec.trace_requests)]
        self.warm_up()
        untraced = self.fixed_pass(requests)[0]
        self.attempted, self.failures = 0, []
        tracer = Tracer()
        tracer.install()
        try:
            traced, sess, log, allpairs_out, join_out = self.fixed_pass(requests, tracer)
            tracer.request = -1          # the checks' own spans (naive_simrank)
            checks = self._check(sess, log, allpairs_out, join_out)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        metrics["diag.residual_max"] = checks.ref.diag_residual
        metrics["query.score_err_max"] = checks.score_err
        metrics["trace.overhead_s"] = traced - untraced
        metrics["trace.overhead_frac"] = (traced - untraced) / untraced
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{self.spec.name}-seed{self.seed}.npz"
        tracer.save(str(path))
        return metrics, self._detail({"requests": len(requests),
                                      "untraced_s": untraced, "traced_s": traced,
                                      "spans_file": str(path.relative_to(ROOT))})


# ---------------------------------------------------------------- statistics

def tail_of(sorted_values) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples
    beyond it, capped at TAIL_MAX and never below the median."""
    n = len(sorted_values)
    if n < 2 * TAIL_BEYOND:
        return 50.0, median(sorted_values)
    beyond = max(TAIL_BEYOND, math.ceil(n * (100.0 - TAIL_MAX) / 100.0))
    return 100.0 * (n - beyond) / n, float(sorted_values[n - beyond - 1])


# ---------------------------------------------------------------- reporting

def print_table(workload: str, metrics: dict, units: dict, detail: dict) -> None:
    print(f"== {workload}: attempted={detail['attempted']} failed={detail['failed']}")
    timings = detail.get("timings", {})
    for name, (unit, better) in units.items():
        note = ""
        t = timings.get(name)
        if t and "percentile" in t:
            note = f"p{t['percentile']:.1f} of {t['samples']}"
        elif t:
            note = f"{t['statistic']} of {t['samples']}"
        print(f"{name:<34} {metrics[name]:>14.6g} {unit:<6} {better:<6} {note}")
    for line in detail["failures"]:
        print(f"FAILED {line}")


def provenance(args) -> dict:
    import numpy
    import scipy

    info = {"seed": args.seed, "workload": args.workload, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(), "caches": _caches(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _commit(),
            "src_sha256": _src_hash()}
    return info


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "simrank").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_all(args, declared) -> int:
    """Each workload in a fresh process; one table per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in declared["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{w['name']}.{name}"] = value
    print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main())
