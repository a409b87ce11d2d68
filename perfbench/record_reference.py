"""Record the reference digests that every benchmark op is checked against.

    python3 perfbench/record_reference.py

Runs each distinct op of every workload once (both shipped sweeps, the
replay session, all documents of the controller_sweep pool) and writes
their output digests to ``perfbench/reference.json``.  The reference is
the program's output at the commit that recorded it; re-record only when
a change is meant to alter outputs, never to make a failing run pass.
"""

from __future__ import annotations

import itertools
import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def record(workload, keys, workdir: Path) -> dict:
    digests = {}
    for key in keys:
        result = workload.run(key, workdir)
        digests[str(key)] = workload.inspect(key, result)[1]
    return digests


def main() -> int:
    workloads.prepare_interpreter()
    scratch = workloads.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=scratch))
    try:
        paper = workloads.PaperSweeps(0)
        controller = workloads.ControllerSweep(0)  # seed 0 walks the pool from document 0
        replay = workloads.ReplaySession(0)
        reference = {
            paper.name: record(paper, paper.documents, workdir),
            controller.name: record(controller, itertools.islice(controller.keys(),
                                                                 workloads.CONTROLLER_POOL), workdir),
            replay.name: record(replay, ["session"], workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
