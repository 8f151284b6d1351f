"""Ensemble benchmark of mblchain.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One run executes a fixed number
of fresh single-process ``mblchain`` CLI invocations (bench/workloads.py)
with seeds derived from --seed, checks each one's outputs, compares the
workload's engine path with the dense oracle at small size (bench/gate.py)
and prints a report.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics, taken from traced invocations alternating with untraced ones.
``--workload all`` runs the four workloads one after another.  Exit code 0
only when every output passed the gate.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, derive_seed  # noqa: E402

BLAS_THREADS = 1  # set explicitly, at most nproc; the run records what BLAS reports
PROCESS_TIMEOUT_S = 150.0
GATE_TIMEOUT_S = 60.0
POLL_S = 0.002

LAYERS = ("disorder", "xy", "xxz", "oracle", "experiments", "cli", "linalg")


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    return env


def wait_with_usage(proc, deadline: float):
    """Reap the process, returning (exit code, end time, rusage); kill it
    at the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        now = time.monotonic()
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, now, usage
        if now > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, time.monotonic(), usage
        time.sleep(POLL_S)


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_invocation(root, workload, seed, work, k, traced, log) -> dict:
    """One CLI process: timings from both sides, outputs and their check."""
    out_dir = os.path.join(work, f"p{k}")
    os.makedirs(out_dir)
    sidecar = os.path.join(out_dir, "sidecar.json")
    argv = workload.cli_argv(seed, out_dir)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), "--root", root,
           "--sidecar", sidecar] + (["--trace"] if traced else []) + ["--"] + argv
    with open(os.path.join(out_dir, "log.txt"), "w") as log_fh:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(),
                                stdout=log_fh, stderr=subprocess.STDOUT)
        code, end, usage = wait_with_usage(proc, spawn + PROCESS_TIMEOUT_S)
    record = {"seed": seed, "traced": traced, "exit_code": code,
              "run_s": end - spawn, "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "problems": []}
    if code != 0 or not os.path.exists(sidecar):
        with open(os.path.join(out_dir, "log.txt")) as fh:
            tail = fh.read()[-2000:]
        record["problems"].append(f"exit code {code}: {tail}")
        log(f"process {k} (seed {seed}) failed: exit {code}\n{tail}")
        return record
    with open(sidecar) as fh:
        side = json.load(fh)
    name = workload.command
    csv_path = os.path.join(out_dir, f"{name}.csv")
    record["problems"] += gate.check_outputs(workload, argv, csv_path)
    record["sha256"] = {f"{name}{ext}": sha256(os.path.join(out_dir, name + ext))
                        for ext in (".csv", ".dat")}
    reals = side["realizations"]
    if not reals:
        record["problems"].append("no realization was timed")
        return record
    durations = {}
    for r in reals:
        durations[r["index"]] = durations.get(r["index"], 0.0) + r["end"] - r["start"]
    record.update(
        setup_s=reals[0]["start"] - spawn,
        ensemble_s=max(r["end"] for r in reals) - reals[0]["start"],
        realization_s=list(durations.values()),
        realizations=len(durations),
        resamples=sum(1 for r in reals if r["error"] == "DegeneracyError"),
        cpu_s=side["cpu_last"] - side["cpu_first"],
        blas_threads=side["blas_threads"],
        trace=side.get("trace"))
    if record["problems"]:
        log(f"process {k} (seed {seed}) failed the gate: {record['problems']}")
    return record


def run_oracle_gate(root, workload, seed) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "gate.py"), "--root", root,
           "--workload", workload.name, "--seed", str(seed)]
    try:
        done = subprocess.run(cmd, cwd=root, env=child_env(), capture_output=True,
                              text=True, timeout=GATE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "oracle gate timed out"}
    if done.returncode != 0:
        return {"ok": False, "error": done.stderr[-2000:]}
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail_statistic(samples):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond).  Below twenty samples that
    percentile would fall under the median, so the maximum is reported."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(records, oracle, attempted, failed) -> tuple[dict, dict]:
    """Metric values (name -> (value, unit)) and the details beside them."""
    times = [t for r in records for t in r["realization_s"]]
    realizations = sum(r["realizations"] for r in records)
    tail, percentile, beyond = tail_statistic(times)
    metrics = {
        "realizations_per_s": (realizations / sum(r["ensemble_s"] for r in records), "1/s"),
        "realization_p50_s": (statistics.median(times), "s"),
        "realization_tail_s": (tail, "s"),
        "run_s": (statistics.median(r["run_s"] for r in records), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in records), "s"),
        "cpu_per_realization_s": (sum(r["cpu_s"] for r in records) / realizations, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in records), "MB"),
        "substituted_fraction": (
            sum(r["resamples"] for r in records) / realizations, "ratio"),
        "failed_fraction": (failed / attempted, "ratio"),
        "oracle_dev": (oracle.get("oracle_dev", float("nan")), "abs"),
    }
    details = {"realization_samples": len(times),
               "realization_tail_percentile": percentile,
               "realization_tail_beyond": beyond,
               "processes": len(records),
               "realizations_per_process": records[0]["realizations"],
               "oracle_tol": oracle.get("oracle_tol")}
    return metrics, details


def per_layer(traced, untraced) -> dict:
    """Per-span calls / self_s / total_s (and kernel ops) per CLI process,
    median over the traced processes, plus layer totals and ratios."""
    summaries = [r["trace"] for r in traced]
    names = tracing.all_span_names()
    metrics = {}

    def median_of(fn):
        return statistics.median(fn(s) for s in summaries)

    for name in names:
        fields = [("calls", "count"), ("self_s", "s"), ("total_s", "s")]
        if name.startswith("linalg."):
            fields.append(("ops", "n3"))
        for field, unit in fields:
            metrics[f"{name}.{field}"] = (median_of(
                lambda s: s["spans"].get(name, {}).get(field, 0)), unit)
    for layer in LAYERS:
        prefix = layer + "."
        metrics[f"layer.{layer}.self_s"] = (median_of(lambda s: sum(
            v["self_s"] for k, v in s["spans"].items() if k.startswith(prefix))), "s")
    used = median_of(lambda s: s["counters"].get("xxz.window_states.used", 0))
    computed = median_of(lambda s: s["counters"].get("xxz.window_states.computed", 0))
    metrics["xxz.window_fraction"] = (used / computed if computed else 0.0, "ratio")
    metrics["experiments.realization.retries"] = (
        statistics.median(r["resamples"] for r in traced), "count")
    metrics["cli.write_outputs.bytes"] = (median_of(
        lambda s: s["counters"].get("cli.write_outputs.bytes", 0)), "bytes")
    metrics["trace.realization_coverage"] = (median_of(
        lambda s: 1.0 - s["realization_self_s"] / s["realization_total_s"]), "ratio")
    rate = lambda rs: sum(r["realizations"] for r in rs) / sum(r["ensemble_s"] for r in rs)
    metrics["trace.rps_ratio"] = (rate(traced) / rate(untraced), "ratio")
    return metrics


def environment(root, run_seed, records, oracle) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(filenames):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "seed": run_seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": next((r["blas_threads"] for r in records
                                       if r.get("blas_threads")), None),
        "python": platform.python_version(),
        "numpy": oracle.get("numpy"),
        "scipy": oracle.get("scipy"),
        "blas": oracle.get("blas"),
        "cpu_model": cpu_model,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def load_spec(root) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_workload(root, spec, workload, run_seed, seconds, trace) -> int:
    """One benchmark run of one workload; prints its report and result line."""
    work = os.path.join(root, ".bench_work", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        records = []
        for k in range(workload.invocations(seconds)):
            traced = bool(trace) and k % 2 == 1
            seed = derive_seed(workload.name, run_seed, k)
            records.append(run_invocation(root, workload, seed, work, k,
                                          traced, log))
        oracle = run_oracle_gate(root, workload,
                                 derive_seed(workload.name, run_seed, "gate"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not oracle.get("ok"):
        log(f"oracle gate failed: {oracle}")
    attempted = len(records) + 1
    failed = sum(1 for r in records if r["problems"]) + (0 if oracle.get("ok") else 1)
    good = [r for r in records if not r["problems"]]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not untraced or (trace and not traced):
        log("no process completed; no metrics")
        return 1

    metrics, details = end_to_end(untraced, oracle, attempted, failed)
    if trace:
        metrics.update(per_layer(traced, untraced))
    env = environment(root, run_seed, records, oracle)

    section = "per_layer" if trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]]
    missing = [m for m in wanted if m not in metrics]
    if missing:
        log(f"metrics listed in BENCHMARK.json but not computed: {missing}")
        return 1

    print(f"# workload {workload.name}: {workload.why}")
    print(f"# {len(records)} processes x {workload.realizations} realizations,"
          f" blas threads {BLAS_THREADS}, seed {run_seed}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:.6g} {unit}")
    detail = {"workload": workload.name, "details": details, "environment": env,
              "oracle": oracle, "sha256": [r.get("sha256") for r in records],
              "absent": sorted({a for r in traced for a in r["trace"]["absent"]}),
              "kernel_callers": [r["trace"]["kernel_callers"] for r in traced],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results = os.path.join(root, ".bench_work", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload.name}-seed{run_seed}"
                           f"-trace{trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print("# detail " + json.dumps({k: detail[k] for k in
                                    ("details", "environment", "oracle", "absent")}))
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    root = os.path.dirname(BENCH_DIR)
    if not os.path.isfile(os.path.join(root, "src", "mblchain", "cli.py")):
        print(f"no mblchain sources under {root}/src", file=sys.stderr)
        return 2
    spec = load_spec(root)
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    names = sorted(WORKLOADS) if opts.workload == "all" else [opts.workload]
    codes = [run_workload(root, spec, WORKLOADS[name], opts.seed, opts.seconds,
                          opts.trace) for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
