"""Times one workload's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <size>

Imports `omnisync` from the checkout's `src/`, builds and validates the
workload's inputs, and prints one JSON object: `import_s` (the import),
`config_s` (time inside `cli.experiment_config_from_doc`, 0 where the
workload has no experiment config) and `setup_s` (import plus inputs).
Interpreter start-up is not counted.  The caller pins BLAS threads through
the environment before starting this process.
"""

import json
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def main(argv) -> int:
    name, seed, size = argv[0], int(argv[1]), argv[2]
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import omnisync.cli as cli
    import_s = time.perf_counter() - t0

    original = cli.experiment_config_from_doc
    config_s = []

    def timed(doc):
        start = time.perf_counter()
        try:
            return original(doc)
        finally:
            config_s.append(time.perf_counter() - start)

    cli.experiment_config_from_doc = timed
    t1 = time.perf_counter()
    WORKLOADS[name].setup(seed, size)
    inputs_s = time.perf_counter() - t1
    print(json.dumps({"import_s": import_s, "config_s": sum(config_s),
                      "setup_s": import_s + inputs_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
