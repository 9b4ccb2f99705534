"""Regenerate the golden end-to-end fixture used by ``test_golden_end_to_end``.

Builds the CLI test suite's synthetic workspace (``make_workspace`` with a
fixed seed; nothing is downloaded) into ``tests/golden/workspace`` and writes
the ``geocausal ate`` output for it to ``tests/golden/results.json``.  Run
from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

Regenerate only when a change to the estimates is intended; the fixture pins
the current numbers.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from geocausal.cli import main  # noqa: E402
from test_cli import make_workspace  # noqa: E402

T = 160
SEED = 11
# Every L of the benchmark's sweep, so that windows long enough for numpy's
# pairwise summation are pinned too.
L_VALUES = "1..14"


def build() -> None:
    workspace = HERE / "workspace"
    shutil.rmtree(workspace, ignore_errors=True)
    workspace.mkdir()
    config = make_workspace(workspace, T=T, seed=SEED, extra={"L": L_VALUES})
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        if main(["ate", "--config", str(config), "--out", str(out)]) != 0:
            raise SystemExit("the ate run failed; no fixture written")
        shutil.copyfile(out / "results.json", HERE / "results.json")


if __name__ == "__main__":
    build()
