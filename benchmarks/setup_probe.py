"""Set-up probe for the setup_s metric.

Run as `python3 benchmarks/setup_probe.py WORKLOAD`: imports hamsim from the
checkout, builds the workload's model and prints `ready`. The parent times
the interval from spawning this process to reading that line.
"""

import sys

from workloads import WORKLOADS, import_hamsim

if __name__ == "__main__":
    hs = import_hamsim()
    WORKLOADS[sys.argv[1]]().load_model(hs)
    print("ready", flush=True)
