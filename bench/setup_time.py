"""Time one fresh set-up: import the package and parse every workload input.

Reads ``{"workload": name, "texts": [...]}`` as JSON on stdin and prints
``{"raw": s, "scaled": s}``: the seconds from just before the package import
to the last parsed input, and those seconds scaled to the reference speed by
the median of KERNEL_SAMPLES kernel calls before and as many after (see
``speed.py``).
``run.py`` starts it once per set-up sample, so that every sample pays the
import in a fresh interpreter, as a command-line user does.  The benchmark's
own modules are imported before the clock starts.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402

sys.path.insert(0, str(run.SRC))

KERNEL_SAMPLES = 5


def main() -> int:
    request = json.load(sys.stdin)
    workload = run.WORKLOADS[request["workload"]]
    texts = request["texts"]
    kernels = [speed.sample() for _ in range(KERNEL_SAMPLES)]
    t0 = time.perf_counter()
    lib = run.import_library()
    for text in texts:
        workload.parse(lib, text)
    seconds = time.perf_counter() - t0
    kernels += [speed.sample() for _ in range(KERNEL_SAMPLES)]
    scaled = seconds * speed.REFERENCE_S / statistics.median(kernels)
    print(json.dumps({"raw": seconds, "scaled": scaled}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
