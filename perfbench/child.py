"""One pass of a workload, in the fresh interpreter run.py starts.

Prints one JSON line: ``{"setup": record, "ops": [record, ...]}``, where a
record is ``[label, seconds, host-speed factor, failure or null]`` and the
set-up record times importing ywalk and building the workload's fixed
inputs.  ``--mode setup`` stops after set-up; ``--mode trace`` wraps the
ywalk layers after set-up, adds per-layer statistics and writes the spans
to ``tracing.spans_path``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import hostspeed
import tracing
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()

    # Everything the benchmark itself imports is loaded by now, so the
    # set-up time is ywalk's import and the workload's fixed inputs.
    with hostspeed.Sampler() as setup:
        ctx = workloads.setup(args.workload)
    if not Path(ctx["y"].__file__).resolve().is_relative_to(SRC):
        print(f"ywalk was imported from {ctx['y'].__file__}, not from {SRC}", file=sys.stderr)
        return 2
    summary: dict = {"setup": ["setup", setup.seconds, setup.factor, None]}
    if args.mode == "setup":
        print(json.dumps(summary))
        return 0

    rng = workloads.rng_for(args.workload, args.seed, args.pass_index)
    ops = workloads.ops(args.workload, ctx, rng)
    tracer = None
    if args.mode == "trace":
        if args.workload == "cli-oneshot":
            breaks = []
            for argv in workloads.CONTRACT_PROBES:
                code, _, err = workloads.call_main(ctx["y"].cli.main, argv)
                if code != 2 or "Traceback" in err:
                    last = (err.strip().splitlines() or ["no message"])[-1]
                    breaks.append(f"{' '.join(argv)}: exit {code}, {last}")
            summary["contract_breaks"] = breaks
        tracer = tracing.Tracer()
        tracer.install()

    records = []
    for k, (label, thunk, check) in enumerate(ops):
        if tracer:
            tracer.op = k
        with hostspeed.Sampler() as speed:
            try:
                result, error = thunk(), None
            except Exception as exc:  # an operation that raises counts as failed
                result, error = None, f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.op = -1
        records.append([label, speed.seconds, speed.factor, error or check(result)])
    summary["ops"] = records

    if tracer:
        summary["layers"] = tracer.layer_stats([r[2] for r in records])
        summary["counts"] = dict(tracer.counts)
        tracer.write(tracing.spans_path(args.workload, args.seed))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
