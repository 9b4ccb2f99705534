"""One benchmark process: set up one workload, run its ops, report as JSON.

``run.py`` starts this script in a fresh interpreter with the checkout's
``src`` on ``PYTHONPATH``, so the import of geocausal (and scipy) counts
towards set-up time and the peak RSS belongs to this workload alone.  The last
line of standard output is the JSON report.

    worker.py --workload NAME --seed N --workdir DIR
              [--reference-seed N] [--seconds S [--trace 0|1 --spans FILE]]

Without ``--seconds`` the process only sets up; with ``--reference-seed`` it
then runs one op on that seed's inputs and compares the output with the
committed reference.  With ``--seconds`` it runs one untimed warm-up op and
then timed ops for that long.  With ``--trace 1`` the first half of that time
is measured untraced and the second half with the layers wrapped.  Every op's
output is checked outside its timed region.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A run takes at least this many timed ops, however slow they are, so that
# every run reports a median.
MIN_OPS = 1

# The speed of a small shared host drifts by a third and more within seconds
# to tens of seconds (other tenants).  A fixed kernel, timed in blocks
# between ops (at least BLOCK_MIN_S, or BLOCK_SHARE of the previous op) while
# the program is idle, measures that speed; the median block of a timed
# window is the host's speed for the window.  The op times behind the
# end-to-end metrics are the wall times multiplied by (KERNEL_REF_S / that
# median) ** CAL_EXPONENT.  The exponent is below 1 because the kernel reacts
# to the host's speed more than geocausal's ops do (README.md).  Wall times
# are kept in the run record.
KERNEL_REF_S = 0.0035
BLOCK_MIN_S = 0.1
BLOCK_SHARE = 0.05
CAL_EXPONENT = 0.5


def _kernel_unit() -> float:
    """Wall time of a fixed kernel of small numpy operations driven from the
    interpreter, the same mix as geocausal's hot paths (no geocausal code)."""
    import numpy as np

    x = np.arange(1024.0)
    start = time.perf_counter()
    acc = 0.0
    for i in range(400):
        acc += float(np.sum((x * 1.0001 + i)[::7]))
    return time.perf_counter() - start


def _kernel_block(budget_s: float) -> float:
    """Mean time of kernel units repeated until ``budget_s`` has passed."""
    start = time.perf_counter()
    units = 0
    while True:
        _kernel_unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            return elapsed / units


class Report:
    """Counts of attempted and failed ops, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, workload, fn=None, after=None):
        """One checked op of ``fn`` (default ``workload.op``); returns its
        seconds, or None if it failed.  ``after`` returns further problems
        with the op just run."""
        self.attempted += 1
        try:
            workload.prepare()
            start = time.perf_counter()
            output = (fn or workload.op)()
            seconds = time.perf_counter() - start
            problems = workload.check(output) + (after() if after else [])
        except Exception as err:  # an op that raises is a failed op
            traceback.print_exc(file=sys.stderr)
            problems = ["%s: %s" % (type(err).__name__, err)]
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
            return None
        return seconds


def _window(report, workload, seconds, fn=None, after=None):
    """Timed ops of ``fn`` for ``seconds``: (wall times, calibrated times)."""
    times: list[float] = []
    blocks = [_kernel_block(BLOCK_MIN_S)]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(times) < MIN_OPS:
        op_s = report.run(workload, fn, after)
        if op_s is None:
            break
        times.append(op_s)
        blocks.append(_kernel_block(max(BLOCK_MIN_S, BLOCK_SHARE * op_s)))
    factor = (KERNEL_REF_S / statistics.median(blocks)) ** CAL_EXPONENT
    return times, [op_s * factor for op_s in times]


def _versions() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--reference-seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    import_start = time.perf_counter()
    import geocausal
    import workloads
    import_end = time.perf_counter()
    src = (ROOT / "src").resolve()
    if src not in Path(geocausal.__file__).resolve().parents:
        print("geocausal was imported from %s, not from %s" % (geocausal.__file__, src),
              file=sys.stderr)
        return 3
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    setup_end = time.perf_counter()

    out = {
        "setup_s": setup_end - import_start,
        "import_s": import_end - import_start,
        "versions": _versions(),
    }
    report = Report()

    if args.reference_seed is not None:
        ref = workloads.WORKLOADS[args.workload](args.reference_seed,
                                                 args.workdir / "reference")
        ref.reference = workloads.load_reference(args.workload, args.reference_seed)
        if ref.reference is None:
            out["reference"] = None
        else:
            ref.setup()
            report.run(ref)
            out["reference"] = {"seed": args.reference_seed,
                                "sha256": ref.reference[1],
                                "produced_sha256": ref.results_sha256()}

    if args.seconds is not None:
        report.run(workload)  # warm-up, untimed
        window = args.seconds / 2 if args.trace else args.seconds
        times, scaled = _window(report, workload, window)
        out["op_s"] = times
        out["op_s_calibrated"] = scaled
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["results_sha256"] = workload.results_sha256()
        if args.trace and times:
            import tracer as tracing

            tr = tracing.Tracer()
            self_check: dict[str, list] = {}

            def traced_op():
                return tr.run_op(workload.op)[0]

            def counts_check():
                # Counts that repeat exactly at the benchmark's first commit;
                # a difference fails the op.
                problems = []
                for key, want in workload.expected_counts().items():
                    got = tr.ops[-1].get(key, 0.0)
                    self_check.setdefault(key, []).append([got, want])
                    if got != want:
                        problems.append("tracer self-check: %s is %r per op, expected %r"
                                        % (key, got, want))
                return problems

            uninstall = tracing.install(tr)
            try:
                traced, traced_scaled = _window(report, workload, window, traced_op,
                                                counts_check)
            finally:
                uninstall()
            if traced:
                ops = tr.ops[:len(traced)]
                out["layers"] = tracing.layer_metrics(
                    ops, statistics.median(scaled), statistics.median(traced_scaled))
                out["attributed_s"] = tracing.attributed_seconds(ops)
                out["traced_ops"] = len(traced)
                out["self_check"] = self_check
            if args.spans is not None:
                tr.write_spans(args.spans)

    out["attempted"] = report.attempted
    out["failed"] = report.failed
    out["problems"] = report.problems
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
