"""One cold set-up: a fresh interpreter imports bridgelab and generates a workload's inputs.

    python3 benchmarks/setup_probe.py <workload> <seed> <work_dir>

Prints time.monotonic() at the moment the inputs are ready.  The caller reads
the same system-wide clock just before starting this process and takes the
difference, so interpreter start-up counts and interpreter shutdown does not.
"""

import sys
import time

import workloads

if __name__ == "__main__":
    workload, seed, work_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.make_inputs(workload, seed, work_dir)
    print(repr(time.monotonic()))
