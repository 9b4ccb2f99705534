"""Write the reference outputs that every benchmark run checks against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

For each pipeline workload this runs one op on the default seed's inputs and
stores its ``results.json`` under ``perfbench/references/`` with its sha256 in
``manifest.json``.  Regenerate only for a change that is meant to alter the
library's results; a run compares its output with these files to rel 1e-9.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SEED = json.loads((HERE / "seeds.json").read_text())["default"]


def main() -> int:
    commit = subprocess.run(["git", "-C", str(HERE.parent), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip() or None
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    manifest = {}
    for name, cls in workloads.WORKLOADS.items():
        if not issubclass(cls, workloads.PipelineWorkload):
            continue
        workdir = Path(tempfile.mkdtemp(dir=HERE.parent))
        try:
            workload = cls(SEED, workdir)
            workload.setup()
            workload.prepare()
            problems = workload.check(workload.op())
            if problems:
                print("%s: %s" % (name, problems), file=sys.stderr)
                return 1
            blob = workload.first_output()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        filename = "%s-seed%d.results.json" % (name, SEED)
        (workloads.REFERENCE_DIR / filename).write_bytes(blob)
        manifest["%s/%d" % (name, SEED)] = {
            "file": filename, "sha256": hashlib.sha256(blob).hexdigest(),
            "generated_at_commit": commit}
    (workloads.REFERENCE_DIR / "manifest.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
