"""geocausal benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports geocausal from ``src`` there.
Workloads: ate-sweep, full-dynamic, validate-ate, validate-mediation (see
``workloads.py`` and README.md).

Every run starts fresh worker processes, one after another: two that only
set up (the first also checks one op on the reference seed against the
committed reference output), then the one that runs the ops.  With
``--trace 0`` the result carries the end-to-end metrics, with ``--trace 1``
the per-layer ones.  The last line of standard output is the JSON result;
details (host, provenance, every op time) go to
``.perfbench/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("ate-sweep", "full-dynamic", "validate-ate", "validate-mediation")
SEEDS = json.loads((HERE / "seeds.json").read_text())
SETUP_PROBES = 2
# The program is single-threaded; one BLAS thread keeps the numbers steady.
BLAS_THREADS = 1
# Whole run, all workers included; the caller allows 180 s.
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with ten samples beyond it.

    With fewer than 21 samples that sample would lie below the median; the
    slowest one is reported instead (percentile 100).
    """
    ordered = sorted(times)
    n = len(ordered)
    beyond = TAIL_BEYOND if n > 2 * TAIL_BEYOND else 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("GEOCAUSAL_THREADS", None)  # the CLI's default of one thread
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before starting a worker")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args,
                          stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                          timeout=remaining, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError("worker %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def host_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "platform": platform.platform(),
            "blas_threads": BLAS_THREADS}


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="geocausal benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=SEEDS["default"])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "geocausal" / "__init__.py").is_file():
        print("error: %s has no src/geocausal to benchmark" % ROOT, file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = []
        for i in range(SETUP_PROBES):
            extra = ["--reference-seed", str(SEEDS["default"])] if i == 0 else []
            probes.append(run_worker(common + extra + ["--workdir", str(workdir / ("setup%d" % i))],
                                     deadline))
        main_run = run_worker(common + [
            "--workdir", str(workdir / "run"), "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
            "--spans", str(OUT_DIR / ("spans-%s.jsonl" % tag))], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    workers = probes + [main_run]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    problems = [p for w in workers for p in w["problems"]]
    wall = main_run.get("op_s") or [0.0]
    times = main_run.get("op_s_calibrated") or [0.0]
    tail_s, tail_pct = tail(times)
    setups = [w["setup_s"] for w in workers]

    if args.trace:
        layers = main_run.get("layers", {})
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in LAYER_METRICS}
    else:
        metrics = {
            "op_s_p50": {"value": statistics.median(times), "unit": "s"},
            "op_s_tail": {"value": tail_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "fraction"},
        }
    correct = failed == 0 and (not args.trace or "layers" in main_run)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "host": dict(host_record(), **main_run["versions"]),
        "provenance": provenance(),
        "setup_s": setups, "op_s_wall": wall, "op_s_calibrated": times,
        "op_s_tail_percentile": tail_pct,
        "reference": probes[0].get("reference"),
        "results_sha256": main_run.get("results_sha256"),
        "problems": problems, "metrics": metrics,
    }
    for key in ("attributed_s", "traced_ops", "self_check"):
        if key in main_run:
            detail[key] = main_run[key]
    (OUT_DIR / ("%s.json" % tag)).write_text(json.dumps(detail, indent=1) + "\n")

    print("geocausal benchmark: workload %s, seed %d, %g s, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("host: %s" % json.dumps(detail["host"], sort_keys=True))
    print("provenance: %s" % json.dumps(detail["provenance"], sort_keys=True))
    print("ops: %d timed (op_s_tail is p%.1f of them), %d attempted in all, %d failed"
          % (len(main_run.get("op_s") or []), tail_pct, attempted, failed))
    print("op wall time: median %.6f s; host speed factor (calibrated / wall): %.4f"
          % (statistics.median(wall), statistics.median(times) / statistics.median(wall)))
    ref = detail["reference"]
    if ref:
        print("reference (seed %d) sha256 %s; produced bytes %s"
              % (ref["seed"], ref["sha256"],
                 "identical" if ref["produced_sha256"] == ref["sha256"] else
                 "differ (sha256 %s)" % ref["produced_sha256"]))
    for problem in problems:
        print("problem: %s" % problem)
    if args.trace and "layers" in main_run:
        layers = main_run["layers"]
        op_mean = layers["trace.op_s_mean"]
        print("traced ops: %d; the layers' self times account for %.6f s of a %.6f s"
              " mean op; %.6f s (%.2f%%) is outside every layer"
              % (main_run["traced_ops"], main_run["attributed_s"], op_mean,
                 layers["trace.unattributed_s"],
                 100.0 * layers["trace.unattributed_s"] / op_mean))
        for key, pairs in sorted(main_run["self_check"].items()):
            print("tracer self-check: %s as expected on all %d traced ops (%s per op)"
                  % (key, len(pairs), ", ".join("%g" % v for v in
                                                sorted({want for _, want in pairs})))
                  if all(got == want for got, want in pairs) else
                  "tracer self-check: %s differs (got, expected): %s"
                  % (key, [pair for pair in pairs if pair[0] != pair[1]][:3]))
    for name, metric in metrics.items():
        print("%-34s %.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
