"""Set-up probe: a fresh interpreter that imports ``mdsr.cli`` and builds one
workload's models, then prints ``ready``.  ``run.py`` times it from start to
that line as one ``setup_s`` sample.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import mdsr.cli  # noqa: E402,F401  (every CLI call pays this import)

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]), os.path.join(HERE, "out"))
    print("ready", flush=True)
