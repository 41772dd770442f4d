#!/usr/bin/env python3
"""Which verify check sets the process's peak memory.

    PYTHONPATH=src python3 scripts/check_memory.py [suite] [seed]

Runs the named checks of ``suite`` (default ``all``) in the order
``fockbridge verify`` runs them, in this one process, with ``VerifyConfig``
at ``seed`` (default 42).  For each check it prints the check's own traced
peak (``tracemalloc``, started before the check and stopped after it, so
numpy buffers and Python objects count and libraries' C scratch does not)
and the process's resident high-water mark after the check
(``getrusage(RUSAGE_SELF).ru_maxrss``, in MB of 2^20 bytes as perfbench
reports it).  The check after which the high-water mark rises is the one
that set it.  Tracing adds its own tables to the resident set while a
check runs, so the high-water marks read somewhat above an untraced run's.
The last column names the modules the check loads first (new entries of
``sys.modules`` whose parent package is not new too, so ``numpy.random``
stands for its submodules), which names a rise that comes from an import.
"""

import resource
import sys
import tracemalloc

from fockbridge.verify import CHECKS, VerifyConfig, suite_names


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _roots(new: set[str]) -> str:
    """The new modules whose parent package was loaded before, or '-'."""
    roots = sorted(m for m in new if m.rpartition(".")[0] not in new)
    return " ".join(roots) or "-"


def main(argv: list[str]) -> int:
    suite = argv[0] if argv else "all"
    cfg = VerifyConfig(seed=int(argv[1]) if len(argv) > 1 else 42)
    print(f"{'check':34s} {'traced peak MiB':>16s} {'max RSS MB after':>17s}  modules loaded")
    print(f"{'(after import)':34s} {'':>16s} {_rss_mb():17.2f}")
    for name in suite_names(suite):
        before = set(sys.modules)
        tracemalloc.start()
        try:
            CHECKS[name][0](cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        loaded = _roots(set(sys.modules) - before)
        print(f"{name:34s} {peak / 2**20:16.2f} {_rss_mb():17.2f}  {loaded}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
