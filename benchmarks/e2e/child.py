"""One repetition of a batch workload, in a fresh process.

Usage (the harness spawns this; it is not meant to be run by hand)::

    python child.py INPUTS.pkl SPAWNED_MONOTONIC {run|trace|reference}

``INPUTS.pkl`` holds the rep's units, generated and pickled by the
harness.  ``SPAWNED_MONOTONIC`` is the harness's ``time.monotonic()``
just before the spawn, so set-up time covers interpreter start, imports
and loading the inputs.  The mode picks plain timing, the traced pass,
or the reference check (every unit on the per-epoch reference path,
with fast-forward off).  The result is one JSON line on stdout, with
raw wall times and the :mod:`speed` factor that converts them to
reference seconds.

A unit that raises is recorded with its id and error and the rep goes
on: failures are counted, never fatal.
"""

from __future__ import annotations

import json
import pickle
import sys
import time


def main(argv) -> int:
    inputs, spawned, mode = argv[1], float(argv[2]), argv[3]
    import workloads
    from speed import SpeedProbe, peak_rss_mb

    with open(inputs, "rb") as handle:
        units = pickle.load(handle)
    import repro.sim.server  # noqa: F401  (the units' run loops)

    setup_s = time.monotonic() - spawned
    tracer = None
    if mode == "trace":
        from tracing import LayerTracer

        tracer = LayerTracer()
        tracer.calibrate()
        tracer.install()
    elif mode == "reference":
        from repro.sim.kernel import set_fast_forward_default

        set_fast_forward_default(False)

    walls, fields, failures = [], [], []
    sim_s = 0.0
    probe = SpeedProbe()
    probe.sample()
    for unit in units:
        start = time.perf_counter()
        try:
            unit_fields = workloads.run_unit(unit)
        except Exception as err:  # fail-soft: count it and go on
            failures.append({"uid": unit.uid,
                             "error": f"{type(err).__name__}: {err}"})
            unit_fields = None
        else:
            sim_s += unit.sim_s
        walls.append(time.perf_counter() - start)
        fields.append(unit_fields)
        probe.after(walls[-1])
    probe.sample()

    result = {
        "setup_s": setup_s,
        "body_s": sum(walls),
        "speed_factor": probe.factor,
        "sim_s": sim_s,
        "walls_s": walls,
        "fields": fields,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
