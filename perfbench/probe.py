"""One benchmark sample in a fresh interpreter.

Times ``import uewpiot.cli``, then calls ``cli.main`` once per command
line given and prints one JSON object: import time, wall and CPU time of
the ``cli.main`` calls, peak RSS and exit codes. With ``--trace PATH`` the
layers are traced (see spans.py), the spans are written to PATH and the
per-layer metrics are added under ``layers``.

    python3 probe.py --import-only
    python3 probe.py [--trace PATH] '[["--out", "o", "reproduce"]]'
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
from time import perf_counter


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--trace", default=None)
    parser.add_argument("calls", nargs="?", default="[]")
    args = parser.parse_args()

    t0 = perf_counter()
    import uewpiot.cli as cli
    import_s = perf_counter() - t0
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    import numpy

    from uewpiot import linkbudget, missionsim, planner

    tracer = None
    run_main = cli.main
    if args.trace:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(cli, planner, missionsim, linkbudget)
        run_main = tracer.wrap("cli.main", cli.main)

    codes = []
    cpu0 = _cpu_s()
    w0 = perf_counter()
    for argv in json.loads(args.calls):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(run_main(argv))
    run_s = perf_counter() - w0
    cpu_s = _cpu_s() - cpu0

    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    resolve_workers = getattr(cli, "_max_workers", None)
    result = {
        "import_s": import_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_kib * 1024 / 1e6,
        "codes": codes,
        "workers": resolve_workers() if resolve_workers else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer)
        tracer.dump(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
