"""Set up as a fresh workload process does, print "ready" and exit.

    python3 perfbench/probe.py n5|n4 SEED

``run.py`` times this process from its start to the "ready" line; that is
one sample of ``setup_s``.
"""

import bootstrap  # noqa: F401  (thread settings and import path come first)

import sys

import workloads
from spans import Spans

workloads.SETUPS[sys.argv[1]](Spans(False), int(sys.argv[2]))
print("ready", flush=True)
