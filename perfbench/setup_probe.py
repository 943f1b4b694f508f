"""One set-up of a workload in a fresh interpreter: import ginar from the
checkout, build the workload's inputs and make one warm-up call.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py runs this several times and reports the median wall time as setup_s.
"""

import sys
import tempfile

from run import ROOT, import_package

import_package()
import workloads  # noqa: E402

with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as workdir:
    workloads.make(sys.argv[1], int(sys.argv[2]), workloads.FULL, workdir).setup()
