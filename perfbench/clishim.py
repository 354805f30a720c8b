"""Traced ``python -m ekrlab`` for the cli-cold workload.

usage: python clishim.py TRACE_OUT ARGV...

Times ``import ekrlab.cli``, installs the layer wrappers, times
``ekrlab.cli.dispatch(ARGV)``, writes both times and the span aggregates to
TRACE_OUT as JSON, and exits with the code dispatch returned.
"""

import json
import sys
import time

from tracing import Installation, Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import ekrlab.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    Installation(tracer)
    start = time.perf_counter()
    code = ekrlab.cli.dispatch(argv)
    dispatch_s = time.perf_counter() - start
    sys.stdout.flush()
    with open(out, "w") as handle:
        json.dump({"import_s": import_s, "dispatch_s": dispatch_s,
                   "trace": tracer.snapshot()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
