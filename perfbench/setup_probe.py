"""Set-up probe, run in a fresh interpreter by run.py to measure ``setup_s``.

Imports spikeislands, parses and validates each config file named on the
command line, then prints ``ready``: from that point the first simulation
could start.  Usage: ``python3 setup_probe.py <src dir> <config file>...``
"""

import sys

sys.path.insert(0, sys.argv[1])

import spikeislands  # noqa: E402

for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        network, _ = spikeislands.parse_document(fh.read())
    network.validate()
print("ready", flush=True)
