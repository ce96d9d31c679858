"""Time ``import tsadkit`` plus the detector registry in this fresh interpreter.

Prints one JSON object: the import's seconds and the speed-probe scale from
kernel samples taken just before and just after it (see ``probe.py``).  Run
pinned to one CPU, with the tsadkit sources on ``PYTHONPATH``.
"""

import json
import time

from probe import kernel_seconds, scale

SAMPLES = 30

before = [kernel_seconds() for _ in range(SAMPLES)]
t0 = time.perf_counter()
import tsadkit  # noqa: E402

tsadkit.REGISTRY
import_s = time.perf_counter() - t0
after = [kernel_seconds() for _ in range(SAMPLES)]
print(json.dumps({"import_s": import_s, "scale": scale(before + after)}))
