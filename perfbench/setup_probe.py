"""Print the set-up seconds of one workload, measured in this fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

from run import timed_setup

if __name__ == "__main__":
    _, seconds = timed_setup(sys.argv[1], int(sys.argv[2]))
    print(repr(seconds))
