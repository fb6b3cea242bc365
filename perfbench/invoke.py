"""Run one rtdeph CLI call in this process and print its measurements.

    python3 perfbench/invoke.py <trace 0|1> <rtdeph arguments...>

Imports rtdeph from the ``src`` directory of the checkout this file sits
in, builds the sweep spec, then times ``rtdeph.cli.main`` on the same
arguments.  With trace 1 the layer functions are wrapped first (see
tracer.py).  The last line of standard output is one JSON object:

- ``setup_done``: ``time.monotonic()`` once rtdeph.cli is imported and the
  spec is built; the caller subtracts its own clock reading at spawn;
- ``wall_s``, ``cpu_s``: wall and process CPU time of ``cli.main``;
- ``peak_rss_kb``: peak resident set size of this process;
- ``exit``: the CLI's exit code; ``backend``: the active kernel backend;
- ``layers``: with trace 1, the tracer's additive totals.

Exits with status 4 if rtdeph cannot be imported from the checkout.
"""

import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)


def main() -> int:
    traced = sys.argv[1] == "1"
    argv = sys.argv[2:]
    try:
        from rtdeph import _kernels, cli
    except ImportError as exc:
        print(f"invoke: cannot import rtdeph from {SRC}: {exc}", file=sys.stderr)
        return 4
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"invoke: rtdeph imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 4
    cli.build_spec(cli.build_parser().parse_args(argv))
    setup_done = time.monotonic()

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    code = tracer.root(cli.main, argv) if tracer else cli.main(argv)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0

    record = {
        "setup_done": setup_done,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "exit": code,
        "backend": _kernels.BACKEND,
    }
    if tracer:
        record["layers"] = tracer.summary()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
