"""One cold set-up, timed inside a fresh process.

    python3 perfbench/setup_probe.py '{"src": "...", "line": [...], ...}'

Imports fockbridge from ``src`` and builds the rules and symbols the JSON
spec names (see ``workloads.build_setup``), then prints
``{"setup_s": seconds}``.  The clock starts before the first import, so the
time covers importing numpy, scipy and fockbridge.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import fockbridge as fb

    from workloads import build_setup

    build_setup(fb, spec)
    print(json.dumps({"setup_s": time.perf_counter() - _START}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
