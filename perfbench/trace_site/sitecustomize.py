"""Loaded at interpreter start-up when this directory is on PYTHONPATH.

The benchmark puts it there only for the server processes of a traced
run; ``PERFBENCH_TRACE_DIR`` names where their spans are written.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import tracehook

    tracehook.install(os.environ["PERFBENCH_TRACE_DIR"])
