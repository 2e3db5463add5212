"""Chain benchmark: report, CLI and lattice costs in units of the eig floor.

Usage (from the repository root)::

    python3 bench/run.py --workload planted-small --seed 1 --seconds 30 --trace 0

For every input of the seeded workload it times, each between two plain
``np.linalg.eig`` calls on the same matrix:

* ``report``: ``real_spectrum_equivalence_report`` plus ``json.dumps``;
* ``cli``: the in-process CLI, ``pseudoherm analyze <file> --output json``
  on planted inputs and ``pseudoherm pt-model ...`` on the lattice;
* ``gauge``: ``canonicalize_tau`` on a random symmetric coefficient family.

Costs are reported in ``xeig``, the op time over the mean of those two eig
times, because the ratio holds steady on a shared machine while absolute
times drift.  Every op is checked against ground truth (see ``checks.py``).
With ``--trace 1`` half of the passes run with spans around every public
function of the package and counts of every ``numpy.linalg`` call, and the
per-layer metrics of ``layers.py`` are reported instead.  The last line of
standard output is the JSON result; the lines before it give the
environment, every metric with its unit, and a context line with sample
counts and the failures by cause and stage.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("planted-small", "planted-large", "pt-lattice")
OPS = ("report", "cli", "gauge")
SETUP_REPEATS = 5
MAX_THREADS = 1
# Imports the program in a fresh interpreter and prints how long that took.
IMPORT_PROGRAM = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, pseudoherm, pseudoherm.cli; print(time.perf_counter() - t)"
)


def pin_threads() -> int:
    """Pin the BLAS pool to at most ``MAX_THREADS``; call before numpy loads."""
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def git_commit() -> str:
    """HEAD of the checkout when it is a detached hash or a loose ref."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
    except OSError:
        return "unknown"
    return ref


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program, which every
    command-line call pays."""
    argv = [sys.executable, "-c", IMPORT_PROGRAM, str(ROOT / "src")]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def environment(np, scipy, workload: str, seed: int, threads: int) -> dict:
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "workload": workload,
        "seed": seed,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


TAIL_PERCENTILE = 90


def tail(by_input: dict[str, list[float]]) -> float:
    """Nearest-rank ``TAIL_PERCENTILE`` over inputs of each input's median.

    The cost of the expensive inputs.  A percentile of single ops would
    sit among the few slowest ops, which move with the load of a shared
    machine, and its rank would move with the number of passes a run fits.
    """
    xs = sorted(statistics.median(v) for v in by_input.values())
    return xs[-(-TAIL_PERCENTILE * len(xs) // 100) - 1]


class Bench:
    """One workload at one seed: set-up, timed passes and the result."""

    def __init__(self, workload: str, seed: int, modules, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.np, self.ph, self.inputs, self.checks = modules
        self.work_dir = work_dir
        self.ops = self.checks.Ops(self.ph, self.ph.cli)

    def attempt(self, kind: str, item):
        checks = self.checks
        # Every op starts from an empty young generation, so the garbage
        # collections an op triggers depend on its own allocations only.
        gc.collect()
        try:
            if kind == "report":
                return self.ops.report(item)
            if kind == "cli":
                return self.ops.cli_op(item)
            return self.ops.gauge(item)
        except Exception as exc:  # every program error is a counted failure
            cause, stage = checks.failure_of(exc, kind)
            defect = checks.known_defect(item, cause, stage)
            return checks.Outcome(kind, item.label, False, cause=cause, stage=stage, defect=defect)

    def setup(self) -> list:
        """Generate the inputs, write the CLI input files and warm up."""
        np, inputs = self.np, self.inputs
        rng = np.random.default_rng(self.seed)
        if self.workload == "planted-small":
            pool = inputs.planted_small_pool(rng)
        elif self.workload == "planted-large":
            pool = inputs.planted_large_pool(rng)
        else:
            pool = inputs.lattice_pool(rng, self.ph)
        assert len({item.label for item in pool}) == len(pool), "labels name the ops"
        for i, item in enumerate(pool):
            if item.lattice is None:
                item.path = str(self.work_dir / f"h{i}.json")
                self.ph.io.save_matrix(item.path, item.h)
            self.ops.prepare_gauge(item, np.random.default_rng([self.seed, i]))
        warm = inputs.planted(rng, 8, "real", 2)
        warm.path = str(self.work_dir / "warm.json")
        self.ph.io.save_matrix(warm.path, warm.h)
        self.ops.prepare_gauge(warm, rng)
        for kind in OPS:
            self.attempt(kind, warm)
        biggest = max((it for it in pool if it.h is not None), key=lambda it: it.h.shape[0])
        self.checks.time_eig(biggest.h)
        return pool

    def measure(self, pool, seconds: float, tracer=None):
        """Whole passes over the pool until ``seconds`` have elapsed.

        With a tracer, odd passes are traced and even ones are not, and at
        least one of each runs.  Returns (outcome, traced) pairs.
        """
        outcomes = []
        deadline = time.perf_counter() + seconds
        passes = 0
        while True:
            traced = tracer is not None and passes % 2 == 1
            if traced:
                tracer.install()
            try:
                for item in pool:
                    for kind in OPS:
                        if traced:
                            tracer.op = len(outcomes)
                        outcomes.append((self.attempt(kind, item), traced))
            finally:
                if traced:
                    tracer.remove()
            passes += 1
            if time.perf_counter() >= deadline and (tracer is None or passes >= 2):
                return outcomes, passes


def xeig_of(outcomes, kind: str) -> dict[str, list[float]]:
    """xeig of every passing op of one kind, grouped by input."""
    by_input: dict[str, list[float]] = {}
    for o in outcomes:
        if o.kind == kind and o.ok:
            by_input.setdefault(o.label, []).append(o.xeig)
    if not by_input:
        raise RuntimeError(f"no {kind} op passed, so no {kind}_xeig can be reported")
    return by_input


def p50(by_input: dict[str, list[float]]) -> float:
    """Median over inputs of each input's median.

    The lattice mixes n = 41..161, whose ratios form separate clusters; a
    median over single ops falls between two clusters and jumps with
    noise, while each input's own median is steady.
    """
    return statistics.median(statistics.median(xs) for xs in by_input.values())


def verdicts(outcomes) -> dict:
    """Each distinct op, keyed by (input label, kind), with its first
    failed repetition, or None when every repetition passed.

    Every pass repeats the same ops on the same inputs, so counts over
    distinct ops do not depend on how many passes fit in the run.
    """
    out: dict[tuple[str, str], object] = {}
    for o in outcomes:
        key = (o.label, o.kind)
        if out.get(key) is None:
            out[key] = None if o.ok else o
    return out


def end_to_end(outcomes, verdict: dict, setup_s: float, context: dict) -> dict:
    """The end-to-end metrics; timings come from the ops that passed in
    every repetition."""
    outcomes = [o for o in outcomes if verdict[o.label, o.kind] is None]
    metrics = {"setup_s": (setup_s, "s")}
    for kind in OPS:
        by_input = xeig_of(outcomes, kind)
        metrics[f"{kind}_xeig.p50"] = (p50(by_input), "xeig")
        if kind != "gauge":
            metrics[f"{kind}_xeig.tail"] = (tail(by_input), "xeig")
        context[f"{kind}_xeig.inputs"] = len(by_input)
        context[f"{kind}_xeig.samples"] = sum(len(xs) for xs in by_input.values())
        context[f"{kind}_ms.p50"] = 1e3 * statistics.median(
            o.seconds for o in outcomes if o.kind == kind and o.ok
        )
    context["eig_ms.p50"] = 1e3 * statistics.median(
        o.eig_seconds for o in outcomes if o.eig_seconds is not None
    )
    passed = sum(fail is None for fail in verdict.values())
    metrics["pass_frac"] = (passed / len(verdict), "fraction")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(pairs, tracer, layers) -> dict:
    """The metrics of ``layers.names_and_units()`` from the traced ops, and
    the untraced and traced ``report_xeig.p50`` behind the overhead."""
    traced_ops = {i: o.kind for i, (o, traced) in enumerate(pairs) if traced}
    n_ops = len(traced_ops)
    kinds = list(traced_ops.values())
    summary = tracer.summary(traced_ops)

    def total(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0)

    metrics = {}
    for fn in layers.TARGETS:
        metrics[f"{fn}.ms"] = (total(fn, "ms") / n_ops, "ms/op")
        metrics[f"{fn}.calls"] = (total(fn, "calls") / n_ops, "calls/op")
    for name in layers.LAPACK:
        metrics[f"lapack.{name}.calls"] = (total(f"lapack.{name}", "calls") / n_ops, "calls/op")
    report = "hermitize.real_spectrum_equivalence_report"
    metrics[f"{report}.self"] = (total(report, "self_ms") / n_ops, "ms/op")
    per_kind = (("metric.build_metric", "report"), ("eigensystem.biorthonormal_eigensystem", "cli"))
    for fn, kind in per_kind:
        calls = summary.get(fn, {}).get("by_kind", {}).get(kind, 0)
        metrics[f"{fn}.calls_per_{kind}"] = (calls / max(kinds.count(kind), 1), "calls/op")
    metrics["io.json_bytes"] = (sum(tracer.json_bytes.values()) / n_ops, "B/op")
    untraced = p50(xeig_of([o for o, t in pairs if not t], "report"))
    traced = p50(xeig_of([o for o, t in pairs if t], "report"))
    metrics["trace.overhead_xeig"] = (traced - untraced, "xeig")
    return metrics, {"untraced": untraced, "traced": traced}


def failures(failed: list) -> dict:
    """``fail.<Cause>`` counts of the failed ops, each split by stage and by
    known defect (``unknown`` for a failure no open defect explains)."""
    out: dict[str, dict] = {}
    for o in failed:
        rec = out.setdefault(f"fail.{o.cause}", {"count": 0, "stages": {}, "defects": {}})
        rec["count"] += 1
        rec["stages"][o.stage] = rec["stages"].get(o.stage, 0) + 1
        defect = o.defect or "unknown"
        rec["defects"][defect] = rec["defects"].get(defect, 0) + 1
    return dict(sorted(out.items()))


def run(workload: str, seed: int, seconds: float, trace: bool, modules, threads: int) -> dict:
    """Set up, measure and verify one workload; returns what ``main`` prints."""
    np, ph, _, checks = modules
    import scipy

    import layers
    from tracer import Tracer

    WORK.mkdir(exist_ok=True)
    work_dir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    work_dir.mkdir()
    try:
        bench = Bench(workload, seed, modules, work_dir)
        # Each repeat imports the program afresh and sets up.  Neighbours on
        # a shared machine slow single repeats by up to half; the minimum
        # is the repeat they disturbed least.
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            pool = bench.setup()
            setup_times.append(time.perf_counter() - t0 + import_seconds())
        setup_s = min(setup_times)

        tracer = Tracer(ph) if trace else None
        gc.collect()
        gc.freeze()  # imports and inputs are long-lived; later collections skip them
        t0 = time.perf_counter()
        pairs, passes = bench.measure(pool, seconds, tracer)
        measured_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    outcomes = [o for o, _ in pairs]
    verdict = verdicts(outcomes)
    failed = [o for o in verdict.values() if o is not None]
    passed_once = {(o.label, o.kind) for o in outcomes if o.ok}
    context = {
        "passes": passes,
        "pool": len(pool),
        "measured_s": measured_s,
        "setup_repeats_s": setup_times,
        "fail_frac": len(failed) / len(verdict),
        # Ops that failed in some repetitions and passed in others.
        "unsteady_ops": sorted(
            f"{o.label} {o.kind}" for o in failed if (o.label, o.kind) in passed_once
        ),
    }
    # In a traced run the end-to-end figures only fill the context line.
    metrics = end_to_end(outcomes, verdict, setup_s, context)
    if trace:
        metrics, context["trace.report_xeig.p50"] = per_layer(pairs, tracer, layers)
        op_kinds = {i: o.kind for i, (o, t) in enumerate(pairs) if t}
        trace_path = WORK / f"trace-{workload}-seed{seed}.jsonl.gz"
        lapack = {
            f"lapack.{name}.calls": metrics[f"lapack.{name}.calls"][0] for name in layers.LAPACK
        }
        tracer.write(trace_path, op_kinds, {"lapack_calls_per_op": lapack, "ops": len(op_kinds)})
        context["trace_file"] = str(trace_path.relative_to(ROOT))
        context["spans"] = len(tracer.spans)
        context["layer_targets"] = layers.targets()

    # The verifier must have teeth in every run: a corrupted copy of a
    # passing report has to be rejected.
    canary_caught = canary(bench, pool, checks)
    # An op that failed in a way no open defect explains is a wrong output.
    unexpected = sorted(f"{o.label} {o.kind} {o.cause} {o.stage}" for o in failed if not o.defect)
    context["unexpected_failures"] = unexpected[:10]
    return {
        "environment": environment(np, scipy, workload, seed, threads),
        "context": context,
        "failures": failures(failed),
        "canary_caught": canary_caught,
        "result": {
            "correct": canary_caught and not unexpected,
            # Distinct ops (input, kind), each repeated once per pass; an op
            # fails when any repetition fails.
            "attempted": len(verdict),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def canary(bench: Bench, pool, checks) -> bool:
    """True when corrupted copies of a passing report all fail the check.

    The first report (smallest input first) that passes is corrupted three
    ways: flipped class, a residual above tolerance, a changed refusal set.
    """
    ph = bench.ph
    for item in sorted((it for it in pool if it.h is not None), key=lambda it: it.h.shape[0]):
        truth = item.spec_class or checks.reference_class(checks.EIG(item.h)[0], item.h)
        try:
            report = ph.real_spectrum_equivalence_report(item.h, checks.TOL)
            checks.check_report(report, "{}", item.h.shape[0], truth)
        except (ph.PseudoHermError, checks.OpFailure):
            continue
        flipped = dict(report, spectrum_class="unpaired" if truth != "unpaired" else "all_real")
        residuals = dict(report["residuals"], completeness=1e-3)
        refusals = dict(report["refusals"], metric="dropped") if not report["refusals"] else {}
        corrupted = (
            flipped,
            dict(report, residuals=residuals),
            dict(report, refusals=refusals),
        )
        for bad in corrupted:
            try:
                checks.check_report(bad, "{}", item.h.shape[0], truth)
            except checks.OpFailure:
                continue
            return False
        return True
    return False


def print_result(out: dict) -> None:
    print(json.dumps({"environment": out["environment"]}))
    for name, m in out["result"]["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    details = {k: out[k] for k in ("context", "failures", "canary_caught")}
    print(json.dumps(details))
    print(json.dumps(out["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_threads()
    import numpy as np

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pseudoherm as ph
        import pseudoherm.cli  # noqa: F401  (the CLI is an op)
    except ImportError as exc:
        print(f"cannot import the pseudoherm package from {src}: {exc}", file=sys.stderr)
        return 2
    if src not in Path(ph.__file__).resolve().parents:
        print(f"pseudoherm was imported from {ph.__file__}, not from {src}", file=sys.stderr)
        return 2
    import checks
    import inputs

    modules = (np, ph, inputs, checks)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), modules, threads)
    print_result(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
