#!/usr/bin/env python3
"""Which package functions each route of each verify identity calls.

    PYTHONPATH=src python3 scripts/route_audit.py [suite] [seed]

Runs the checks of ``suite`` (default ``all``) as ``fockbridge verify``
runs them, with ``VerifyConfig`` at ``seed`` (default 42), under a
``sys.setprofile`` hook.  Every comparison a check makes goes through
``verify._Comparisons``, which calls each of its routes from its own frame,
so the hook can attribute every call of a package function to the route
being evaluated.  Building rules and symbols, drawing data and folding
errors happen outside the routes and are not recorded; the hook sees
Python-level calls only.

For each check and identity label it prints one tab-separated row: the
functions that two routes of one comparison both call (``-`` for none),
then the functions of each route in order.  A function is named
``module.qualname``; a comprehension counts as part of the function that
holds it, as it does from Python 3.12 on.
"""

import itertools
import os
import sys
from collections import defaultdict
from pathlib import Path

import fockbridge
from fockbridge import verify

PACKAGE = str(Path(fockbridge.__file__).parent) + os.sep
COMPARE = verify._Comparisons.__call__.__code__
RUN_ONE = verify._run_one.__code__
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def function_name(code) -> str:
    return f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"


class RouteTracer:
    """A ``sys.setprofile`` hook, entered as a context manager around a
    suite run.  ``routes[(check, label)][i]`` holds the code objects of the
    package functions that route ``i`` called in any comparison under that
    label; ``shared[(check, label)]`` those that two routes of one
    comparison both called."""

    def __init__(self):
        self.routes = defaultdict(lambda: defaultdict(set))
        self.shared = defaultdict(set)
        self._check = None
        self._key = None
        self._calls = []  # one set per route of the comparison being made
        self._route = None  # the frame of the route being evaluated

    def __enter__(self):
        sys.setprofile(self)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        self._settle()

    def __call__(self, frame, event, arg):
        if event == "return" and frame is self._route:
            self._route = None
        if event != "call":
            return
        code = frame.f_code
        if self._route is not None:
            if code.co_filename.startswith(PACKAGE) and code.co_name not in COMPREHENSIONS:
                self._calls[-1].add(code)
        elif code is RUN_ONE:
            self._check = frame.f_locals["name"]
        elif frame.f_back is not None and frame.f_back.f_code is COMPARE:
            local = frame.f_back.f_locals
            if code is getattr(local["route"], "__code__", None):
                if not local["sides"]:  # the comparison's first route
                    self._settle()
                    self._key = (self._check, local["label"])
                self._calls.append(set())
                self._route = frame

    def _settle(self) -> None:
        """Fold the comparison just made into ``routes`` and ``shared``."""
        for i, calls in enumerate(self._calls):
            self.routes[self._key][i] |= calls
        for a, b in itertools.combinations(self._calls, 2):
            self.shared[self._key] |= a & b
        self._calls = []

    def rows(self):
        """(check, label, shared names, names per route), in run order."""
        names = lambda codes: sorted({function_name(c) for c in codes})
        for key, routes in self.routes.items():
            yield (*key, names(self.shared[key]), [names(routes[i]) for i in sorted(routes)])


def main(argv: list[str]) -> int:
    suite = argv[0] if argv else "all"
    cfg = verify.VerifyConfig(seed=int(argv[1]) if len(argv) > 1 else 42)
    with RouteTracer() as tracer:
        verify.run_suite(suite, cfg)
    print("check\tidentity\tshared by two routes\tfunctions of each route, in order")
    for check, label, shared, routes in tracer.rows():
        print("\t".join([check, label, " ".join(shared) or "-"] + [" ".join(r) or "-" for r in routes]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
