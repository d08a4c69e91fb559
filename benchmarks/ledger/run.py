"""The layer ledger: one seeded benchmark over four workloads.

Run from the repository root::

    python3 benchmarks/ledger/run.py                      # all workloads
    python3 benchmarks/ledger/run.py --workload compile --seed 3
    python3 benchmarks/ledger/run.py --trace              # per-layer run
    python3 benchmarks/ledger/run.py --repeat 5 --out FILE
    python3 benchmarks/ledger/run.py --check-against FILE

Each workload runs in fresh worker processes (``workloads.py``) with a
temporary ``REPRO_CACHE_DIR`` under ``benchmarks/ledger/out/`` and
``REPRO_JOBS=1``. ``setup_s`` is the median over ``SETUP_SAMPLES``
fresh workers of the time from spawn to ready; the last of them goes
on to the timed phase. Every metric prints by name with its unit; the
last line of output is one JSON object. The exit code is non-zero when
an operation fails its correctness check, a worker fails, or
``--check-against`` finds a metric worse than its bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("compile", "replan", "sweep", "serve")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150
# Switches that would change what is measured; REPRO_JOBS is then
# pinned to 1 and REPRO_CACHE_DIR pointed at a fresh directory.
CLEARED_ENV = ("REPRO_SIM_REFERENCE", "REPRO_SIM_INTERP",
               "REPRO_VALIDATE_PASSES", "REPRO_CACHE_MAX_BYTES",
               "REPRO_JOBS", "REPRO_CACHE_DIR")


def fingerprint() -> Dict:
    """The machine and software a result was measured on."""
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        # --git-dir keeps git from searching directories above ROOT.
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse",
                 "HEAD"], capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "commit": commit,
            "loadavg": os.getloadavg()}


def worker_env(cache_dir: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["REPRO_JOBS"] = "1"
    env["REPRO_CACHE_DIR"] = cache_dir
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               setup_only: bool):
    """Spawn one worker; returns (seconds to READY, its JSON result)."""
    OUT.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(cache_dir),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # The worker's session holds any server it starts, so a timeout
    # takes the whole group down.
    watchdog = threading.Timer(
        SETUP_TIMEOUT_S if setup_only else RUN_TIMEOUT_S,
        _kill_group, args=(proc,))
    watchdog.start()
    ready, last = None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            _kill_group(proc)
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
    if code != 0 or ready is None or (last is None and not setup_only):
        raise RuntimeError(f"{workload} worker exited with code {code}")
    return ready, (None if setup_only else json.loads(last))


def _kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 spec: Dict) -> Dict:
    """One run of one workload: every metric as a plain value."""
    load_before = os.getloadavg()
    setups = [run_worker(workload, seed, seconds, trace, True)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    ready, result = run_worker(workload, seed, seconds, trace, False)
    setups.append(ready)
    result["e2e"]["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    result["loadavg"] = [load_before, os.getloadavg()]
    if trace:
        layers = result.get("layers", {})
        result["layers"] = {m["name"]: layers.get(m["name"], 0.0)
                            for m in spec["per_layer"]}
    return result


def records(workload: str, runs: List[Dict], spec: Dict) -> List[Dict]:
    """``{workload, metric, unit, value, samples, q1, q3}`` rows; the
    value is the median over runs."""
    def row(metric, unit, samples):
        samples = [float(s) for s in samples]
        if len(samples) > 1:
            q1, _, q3 = statistics.quantiles(samples, n=4)
        else:
            q1 = q3 = samples[0]
        return {"workload": workload, "metric": metric, "unit": unit,
                "value": statistics.median(samples), "samples": samples,
                "q1": q1, "q3": q3}

    rows = []
    traced = "layers" in runs[0]
    for metric in spec["per_layer" if traced else "end_to_end"]:
        key = "layers" if traced else "e2e"
        rows.append(row(metric["name"], metric["unit"],
                        [run[key][metric["name"]] for run in runs]))
    for name, (_, unit) in sorted(runs[0]["detail"].items()):
        rows.append(row(name, unit, [run["detail"][name][0]
                                     for run in runs]))
    rows.append(row("attempted", "count",
                    [run["attempted"] for run in runs]))
    rows.append(row("failed", "count", [run["failed"] for run in runs]))
    return rows


def check_against(current: List[Dict], path: Path, spec: Dict) -> bool:
    """True when no end-to-end metric is worse than its bound; the
    baseline for each row is its latest value in FILE."""
    doc = json.loads(path.read_text())
    baseline = {(r["workload"], r["metric"]): r["value"]
                for s in doc["sets"] for r in s["records"]}
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    print(f"# against {path}")
    for row in current:
        metric = bounds.get(row["metric"])
        base = baseline.get((row["workload"], row["metric"]))
        if metric is None or not base:
            continue
        change = (row["value"] - base) / base
        worse = change if metric["better"] == "lower" else -change
        verdict = "REGRESSION" if worse > metric["bound"] else "ok"
        ok &= verdict == "ok"
        print(f"{row['workload']:<8s} {row['metric']:<14s} "
              f"{base:12.5g} -> {row['value']:12.5g} {change:+8.1%} "
              f"(bound {metric['bound']:.0%}) {verdict}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase length (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run, reporting per-layer "
                             "metrics instead of end-to-end ones")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (same seed)")
    parser.add_argument("--out", type=Path, default=None,
                        help="append this set of records to FILE")
    parser.add_argument("--check-against", type=Path, default=None,
                        metavar="FILE",
                        help="fail if an end-to-end metric is worse than "
                             "its bound versus FILE's last set")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not spec_path.is_file():
        print(f"error: run from a checkout holding src/repro and "
              f"BENCHMARK.json (looked in {ROOT})", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or list(WORKLOADS)
    print(f"# ledger: seed {args.seed}, {seconds:g} s, trace "
          f"{args.trace}, {args.repeat} run(s) per workload")

    all_rows, attempted, failed = [], 0, 0
    for workload in workloads:
        try:
            runs = [run_workload(workload, args.seed, seconds, args.trace,
                                 spec) for _ in range(args.repeat)]
        except (RuntimeError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        for run in runs:
            attempted += run["attempted"]
            failed += run["failed"]
            for failure in run["failures"]:
                print(f"# FAILED {workload}: {failure}", file=sys.stderr)
        rows = records(workload, runs, spec)
        all_rows += rows
        for row in rows:
            print(f"{workload:<8s} {row['metric']:<36s} "
                  f"{row['value']:14.6g} {row['unit']}")

    ok = failed == 0
    document = {"fingerprint": fingerprint(), "seed": args.seed,
                "seconds": seconds, "trace": args.trace,
                "repeat": args.repeat, "records": all_rows}
    if args.check_against is not None:
        ok = check_against(all_rows, args.check_against, spec) and ok
    if args.out is not None:
        previous = (json.loads(args.out.read_text())
                    if args.out.exists() else {"sets": []})
        previous["sets"].append(document)
        args.out.write_text(json.dumps(previous, indent=1) + "\n")
        print(f"# appended to {args.out}")

    wanted = {m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]}
    prefix = len(workloads) > 1
    metrics = {
        (f"{row['workload']}.{row['metric']}" if prefix else row["metric"]):
            {"value": row["value"], "unit": row["unit"]}
        for row in all_rows if row["metric"] in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
