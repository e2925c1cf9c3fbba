"""Set-up time in a fresh interpreter: import consensuslab and load the configs.

Usage: python3 perfbench/setup_probe.py <config.json>...
Prints the elapsed seconds, measured from before the import.
"""
import time

_start = time.perf_counter()

import sys  # noqa: E402

from consensuslab import load_config  # noqa: E402

for _path in sys.argv[1:]:
    load_config(_path)
print(repr(time.perf_counter() - _start))
