"""Launch ``repro serve`` for the service workload, reporting on exit.

Usage (spawned by the harness)::

    python serve.py STATS.json {run|trace} [repro serve arguments...]

Runs the unmodified ``repro serve`` command in this process.  In
``trace`` mode the layer wrappers of :mod:`tracing`, and wrappers on the
:class:`~repro.service.fleet_service.FleetService` handlers, are
installed first.  When the service shuts down, ``STATS.json`` receives
the process's peak RSS and, when traced, the layer table.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    stats_path, mode, serve_args = argv[1], argv[2], argv[3:]
    from repro import cli
    from speed import peak_rss_mb

    tracer = None
    if mode == "trace":
        from tracing import LayerTracer

        tracer = LayerTracer()
        tracer.calibrate()
        tracer.install(service=True)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        stats = {"peak_rss_mb": peak_rss_mb()}
        if tracer is not None:
            stats["trace"] = tracer.snapshot()
        with open(stats_path, "w") as handle:
            json.dump(stats, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
