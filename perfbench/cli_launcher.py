"""Run ``convdyn.cli.main`` with the benchmark's tracing wrappers installed.

The traced ``cli_mix`` run starts each CLI child through this file instead
of ``python -m convdyn.cli``.  ``PERFBENCH_T0`` is the parent's
``perf_counter()`` just before the start, so ``cli.startup_s`` runs from
process start until ``convdyn.cli`` is imported.  The spans go to the JSON
file named by ``PERFBENCH_SPANS``.
"""

import json
import os
import sys
from time import perf_counter

import tracing

tracer = tracing.Tracer()
import convdyn.cli  # noqa: E402

tracer.counters["cli.startup_s"] = perf_counter() - float(os.environ["PERFBENCH_T0"])
tracer.install()
code = convdyn.cli.main(sys.argv[1:])
sys.stdout.flush()
with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
    json.dump(tracer.to_json(), fh)
sys.exit(code)
