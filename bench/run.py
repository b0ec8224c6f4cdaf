"""relqi benchmark: time, memory and correctness of pinned CLI sweeps.

    python3 bench/run.py --workload spin_sweep --seed 0 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 28 --trace 0

With --trace 0 each invocation of the workload runs as its own `python -m
relqi` process, over and over for --seconds (closed loop, one client), and
the end-to-end metrics are medians over those passes: wall_s (all of a
pass's invocations, process start to exit), peak_rss_mb (the largest
invocation, from the child's own rusage; the highest over passes) and
setup_s (a fresh interpreter importing relqi.cli).  fail_frac is failed rows over attempted rows; it is
printed with the metrics and carried by the result line's `failed` and
`attempted`.

With --trace 1 the same invocations run in-process through relqi.cli.run,
alternating untraced and traced passes (see tracing.py), followed by a
scaling pass and an import-time probe; the result line carries the
per-layer metrics.  Traced outputs must be byte-identical to untraced ones.

The last line of standard output is the JSON result.  A fuller record,
environment included, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import checks
import envinfo
import tracing
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference" / "seed0"

CHILD_ENV = {
    "RELQI_THREADS": "2",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), **CHILD_ENV)
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(args: list[str], env: dict[str, str], stderr_path: Path):
    """Run `python <args>`; returns (wall seconds, peak RSS in MB, exit code).

    The peak comes from wait4 on this child alone: RUSAGE_CHILDREN keeps
    the maximum over every child reaped so far.
    """
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def measure_setup(env, scratch: Path) -> list[float]:
    """Fresh-interpreter `import relqi.cli` times, after one untimed warm-up."""
    samples = []
    for i in range(SETUP_REPEATS + 1):
        wall, _, code = run_child(["-c", "import relqi.cli"], env, scratch / "setup.err")
        if code != 0:
            raise RuntimeError("import relqi.cli failed: "
                               + (scratch / "setup.err").read_text(errors="replace"))
        if i:
            samples.append(wall)
    return samples


def reference_for(inv, seed: int) -> Path | None:
    return REFERENCE / f"{inv.name}{inv.suffix}" if seed == 0 else None


def check_outputs(workload, seed, texts, codes, outdir: Path):
    attempted = failed = 0
    problems = []
    for inv in workload.invocations:
        a, f, p = checks.check(inv, inv.expected_params(texts[inv.name]), codes[inv.name],
                               outdir / f"{inv.name}{inv.suffix}", reference_for(inv, seed))
        attempted, failed, problems = attempted + a, failed + f, problems + p
    return attempted, failed, problems


def run_untraced(workload, seed: int, seconds: float, scratch: Path):
    env = child_env()
    setup = measure_setup(env, scratch)
    texts = {inv.name: inv.sweep_texts(workload.name, seed) for inv in workload.invocations}
    passes = []
    attempted = failed = 0
    problems: list[str] = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        wall = rss = 0.0
        codes = {}
        for inv in workload.invocations:
            out = scratch / f"{inv.name}{inv.suffix}"
            if out.exists():
                out.unlink()
            err = scratch / f"{inv.name}.err"
            dt, mb, codes[inv.name] = run_child(
                ["-m", "relqi", *inv.argv(texts[inv.name], str(out))], env, err)
            if codes[inv.name] != 0:
                problems.append(f"{inv.name} stderr: "
                                + err.read_text(errors="replace").strip()[-500:])
            wall, rss = wall + dt, max(rss, mb)
        a, f, p = check_outputs(workload, seed, texts, codes, scratch)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        passes.append({"wall_s": wall, "peak_rss_mb": rss, "failed": f})
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), len(passes)),
        # The highest peak, not the median: with two workers a pass peaks at
        # about 1040 MB or about 1200 MB on entangle_pairs, depending on
        # whether two rows' refinements overlap, so a median flips between them.
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), len(passes)),
        "setup_s": (statistics.median(setup), len(setup)),
    }
    detail = {"flags": texts, "passes": passes, "setup_s_samples": setup}
    return metrics, attempted, failed, problems, detail


def run_traced(workload, seed: int, seconds: float, scratch: Path):
    os.environ.update(CHILD_ENV)
    sys.path.insert(0, str(SRC))
    texts = {inv.name: inv.sweep_texts(workload.name, seed) for inv in workload.invocations}
    metrics, passes, codes, outdir, identical = tracing.traced_passes(
        workload, texts, seconds, scratch)
    attempted, failed, problems = check_outputs(workload, seed, texts, codes, outdir)
    if not identical:
        problems.append("traced outputs differ from untraced in-process outputs")
    scaled, absent = tracing.scaling()
    metrics.update(scaled)
    metrics.update(tracing.import_times(child_env()))
    detail = {"flags": texts, "traced_passes": passes, "identical": identical,
              "scaling_absent": absent}
    return {k: (v, passes) for k, v in metrics.items()}, attempted, failed, problems, detail


def declared(trace: int) -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def _number(value: float):
    return int(value) if float(value).is_integer() and abs(value) < 2**53 else value


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    workload = WORKLOADS[name]
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RESULTS))
    try:
        measured, attempted, failed, problems, detail = (run_traced if trace else run_untraced)(
            workload, seed, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    spec = declared(trace)
    undeclared = sorted(set(measured) - set(spec))
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
    metrics = {k: {"value": _number(v), "unit": spec[k]["unit"], "samples": n}
               for k, (v, n) in measured.items()}
    absent = sorted(set(spec) - set(metrics))
    fail_frac = failed / attempted
    for key, m in metrics.items():
        n = m["samples"]
        print(f"{name} {key} = {m['value']:.6g} {m['unit']} "
              + (f"(per pass, {n} traced passes)" if trace else f"({n} samples)"))
    print(f"{name} fail_frac = {fail_frac:.6g} ({failed} of {attempted} rows)")
    for key in absent:
        print(f"{name} {key}: absent", file=sys.stderr)
    for problem in problems[:20]:
        print(f"{name} problem: {problem}", file=sys.stderr)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
        "fail_frac": fail_frac, "metrics": metrics, "absent": absent,
        "problems": problems, "detail": detail,
        "environment": envinfo.describe(ROOT, child_env(), CHILD_ENV),
    }
    out = RESULTS / f"{name}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "relqi" / "cli.py").is_file():
        print(f"bench: no relqi sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_one(n, args.seed, args.seconds, args.trace) for n in names]
    if len(results) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]}
                   for k, m in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": m["value"], "unit": m["unit"]}
                   for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
