"""ywalk benchmark: four workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload g2-deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; ywalk is imported from ./src.  One client,
closed loop, no concurrency.  Each pass of a workload runs in a fresh
interpreter (child.py; for cli-oneshot, one `python -m ywalk` process per
query), and a run makes a fixed number of passes, sized so that a run
measures about --seconds at the commit that defined the benchmark.  The
count is fixed so that the sample count, and so the tail percentile, is
the same on every commit.  Times are scaled for host speed (hostspeed.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and
one traced pass of the same inputs and prints the per-layer metrics.
The last line of output is one JSON object; the lines before it are the
same numbers for reading, with units and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import hostspeed
import oracle
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Seconds one pass took at the commit that defined the benchmark (2-core
# x86-64 container, CPython 3.11); a run makes round(--seconds / this).
NOMINAL_PASS_S = {"g2-deep": 12.5, "f4-tables": 6.0, "cyclicity-long": 12.0, "cli-oneshot": 12.0}
SETUP_PROBES_PER_PASS = 2
CLI_QUERIES_PER_SETUP_PROBE = 7
INTERPRETER_PROBES = 5
CHILD_TIMEOUT_S = 60  # a hung child is killed; the run then fails

END_TO_END = (("op_s.p50", "s"), ("op_s.tail", "s"), ("ops_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# name -> unit.  "<layer>.<function>.<calls|s|self_s>" read the traced
# pass's span statistics; the others are computed in per_layer().
PER_LAYER = {
    "rootsystem.weyl_longest.calls": "count",
    "rootsystem.weyl_longest.self_s": "s",
    "rootsystem.is_reduced_word_of_longest.self_s": "s",
    "rootsystem.path_exponents.self_s": "s",
    "rootsystem.positive_roots.s": "s",
    "walk.run_walk.self_s": "s",
    "walk.init_walk.s": "s",
    "walk.extract_step_poly.calls": "count",
    "walk.extract_step_poly.self_s": "s",
    "walk.apply_step.calls": "count",
    "walk.apply_step.self_s": "s",
    "exact.series_log.calls": "count",
    "exact.series_log.s": "s",
    "exact.series_from_poly_ratio.s": "s",
    "exact.power_sums_to_monic.s": "s",
    "exact.extend_power_sums.s": "s",
    "exact.ParamPoly.mul.calls": "count",
    "exact.ParamPoly.add.calls": "count",
    "exact.roots_affine_in_param.calls": "count",
    "exact.roots_affine_in_param.s": "s",
    "cyclicity.compute_t_sets.s": "s",
    "cyclicity.compute_s_sets.s": "s",
    "cyclicity.check_cyclicity.calls": "count",
    "cyclicity.check_cyclicity.s": "s",
    "cyclicity.factors": "count",
    "cyclicity.violations": "count",
    "cyclicity.hit_ratio": "ratio",
    "cyclicity.build_ordered_product.s": "s",
    "sl2.check_relations.s": "s",
    "sl2.symmetrized_insertion_check.s": "s",
    "sl2.extremal_series_check.s": "s",
    "verify.run_suite.self_s": "s",
    "cli.main.self_s": "s",
    **{f"cli.cmd.{cmd}.p50": "s" for cmd in
       ("path", "walk", "tables", "cyclicity", "weyl-module", "dim", "verify")},
    "cli.import_s": "s",
    "cli.interpreter_s": "s",
    "cli.contract_breaks": "count",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def run_process(argv, pass_fds=()) -> dict:
    """Run one process to its end.  Returns its exit code, output, wall
    seconds and peak RSS in MB from its own rusage."""
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), text=True, pass_fds=pass_fds,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    return {"code": proc.returncode, "out": out, "err": err[0], "wall_s": wall_s,
            "rss_mb": usage.ru_maxrss / 1024}


def run_pass(workload, seed, pass_index, mode) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
            "--seed", str(seed), "--pass", str(pass_index), "--mode", mode]
    proc = run_process(argv)
    if proc["code"] != 0:
        raise BenchError(f"{workload} pass exited {proc['code']}:\n{proc['err']}")
    return proc, json.loads(proc["out"].splitlines()[-1])


def timed(fn):
    """fn() with the host-speed factor measured around it (hostspeed.py)."""
    before = hostspeed.reference_s()
    result = fn()
    return result, hostspeed.factor([before, hostspeed.reference_s()])


def setup_probe(workload, seed) -> list:
    """The set-up record of one set-up-only process."""
    return run_pass(workload, seed, 0, "setup")[1]["setup"]


# `python -m ywalk <argv>`, with hostspeed sampling inside the query
# process; runpy.run_module(..., alter_sys=True) is what -m does.
CLI_SHIM = ("import sys; sys.path.insert(0, {bench!r}); import hostspeed; del sys.path[0]; "
            "hostspeed.sample_into({fd}); import runpy; "
            "runpy.run_module('ywalk', run_name='__main__', alter_sys=True)")


def cli_query(argv) -> tuple[dict, float, float]:
    """One CLI query process, its wall seconds less the time its host-speed
    samples took, and the host-speed factor over its life."""
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd, "rb") as samples:
        try:
            before = hostspeed.reference_s()
            shim = CLI_SHIM.format(bench=str(BENCH), fd=write_fd)
            proc = run_process([sys.executable, "-c", shim, *argv], pass_fds=(write_fd,))
            after = hostspeed.reference_s()
        finally:
            os.close(write_fd)
        report = samples.read()  # empty if the process died before its atexit hooks
        sampling_s, during = json.loads(report) if report else (0.0, [])
    return proc, proc["wall_s"] - sampling_s, hostspeed.factor([before, *during, after])


def cli_pass(seed, pass_index, fixed) -> tuple[list, list, list]:
    """One pass of cli-oneshot: each query in its own `python -m ywalk`,
    with a set-up probe before every seventh query."""
    ops, rss, setups = [], [], []
    queries = workloads.cli_queries(workloads.rng_for("cli-oneshot", seed, pass_index))
    for i, q in enumerate(queries):
        if i % CLI_QUERIES_PER_SETUP_PROBE == 0:
            setups.append(setup_probe("cli-oneshot", seed))
        proc, seconds, factor = cli_query(q["argv"])
        reason = oracle.check_cli(q, proc["code"], proc["out"], proc["err"], fixed)
        ops.append([q["argv"][0], seconds, factor, reason])
        rss.append(proc["rss_mb"])
    return ops, rss, setups


# ------------------------------------------------------------- statistics
#
# An operation is [label, seconds, host-speed factor, failure or None], its
# seconds being wall time less the host-speed samples taken during it; every
# time metric is seconds * factor (hostspeed.py).


def scaled(records) -> list[float]:
    return [r[1] * r[2] for r in records]


def tail(times) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and that
    percentile; the maximum when there are fewer than eleven samples."""
    times = sorted(times)
    n = len(times)
    k = n - 10 if n > 10 else n
    return times[k - 1], 100 * k / n


def end_to_end(ops, setups, rss) -> tuple[dict, list[str]]:
    times = scaled(ops)
    n, failed = len(times), sum(1 for op in ops if op[3])
    tail_s, pct = tail(times)
    values = {
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "ops_per_s": (n - failed) / sum(times),
        "setup_s": statistics.median(scaled(setups)),
        "peak_rss_mb": max(rss),
    }
    raw_p50 = statistics.median(op[1] for op in ops)
    notes = {
        "op_s.p50": f"n={n}; unscaled {raw_p50:.4g} s, host factor median "
                    f"{statistics.median(op[2] for op in ops):.3f}",
        "op_s.tail": f"p{pct:.1f}, n={n}" + (" (maximum: fewer than 11 samples)" if n <= 10 else ""),
        "ops_per_s": f"n={n - failed} completed",
        "setup_s": f"median of {len(setups)} set-ups; unscaled {statistics.median(s[1] for s in setups):.4g} s",
        "peak_rss_mb": f"max of {len(rss)} processes",
    }
    lines = [f"  {name:<13} {values[name]:>12.6g} {unit:<4} {notes[name]}" for name, unit in END_TO_END]
    lines.append(f"  {'fail_ratio':<13} {failed / n:>12.6g} {'-':<4} {failed}/{n} failed")
    return values, lines


def per_layer(workload: str, traced: dict, untraced_ops: list, probes: dict) -> dict:
    """Span and counter totals of the traced pass.  Every time is scaled:
    spans by their operation's factor (child.py), cli.cmd.* and
    trace.overhead from the operation records."""
    layers, counts = traced["layers"], traced["counts"]
    values = {}
    for name in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if head in layers:
            values[name] = layers[head][stat]
        elif name in counts:
            values[name] = counts[name]
        else:
            values[name] = 0
    pairs = counts.get("cyclicity.pairs", 0)
    values["cyclicity.hit_ratio"] = counts.get("cyclicity.violations", 0) / pairs if pairs else 0
    if workload == "cli-oneshot":
        for name in PER_LAYER:
            if name.startswith("cli.cmd."):
                cmd = name[len("cli.cmd."):-len(".p50")]
                values[name] = statistics.median(scaled(op for op in traced["ops"] if op[0] == cmd))
    values.update(probes)
    values["cli.contract_breaks"] = len(traced.get("contract_breaks", []))
    values["trace.overhead"] = (statistics.median(scaled(traced["ops"]))
                                / statistics.median(scaled(untraced_ops)))
    return values


# ------------------------------------------------------------------ runs


def interpreter_probes() -> dict:
    """cli.interpreter_s: a bare `python -c pass`; cli.import_s: `import
    ywalk.cli` timed inside a fresh interpreter.  Scaled medians of five."""
    code = "import time; t = time.perf_counter(); import ywalk.cli; print(time.perf_counter() - t)"
    bare, imports = [], []
    for _ in range(INTERPRETER_PROBES):
        proc, factor = timed(lambda: run_process([sys.executable, "-c", "pass"]))
        bare.append(proc["wall_s"] * factor)
        proc, factor = timed(lambda: run_process([sys.executable, "-c", code]))
        imports.append(float(proc["out"]) * factor)
    return {"cli.interpreter_s": statistics.median(bare), "cli.import_s": statistics.median(imports)}


def run_untraced(workload, seed, seconds) -> tuple[dict, list, list[str]]:
    """The timed passes, with set-up probes spread over the run."""
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    run_pass(workload, seed, 0, "setup")  # writes bytecode caches; not timed
    ops, rss, setups = [], [], []
    for k in range(passes):
        if workload == "cli-oneshot":
            pass_ops, pass_rss, pass_setups = cli_pass(seed, k, oracle.load_golden("cli_stdout.json"))
        else:
            pass_setups = [setup_probe(workload, seed) for _ in range(SETUP_PROBES_PER_PASS)]
            proc, summary = run_pass(workload, seed, k, "run")
            pass_ops, pass_rss = summary["ops"], [proc["rss_mb"]]
            pass_setups.append(summary["setup"])
        ops += pass_ops
        rss += pass_rss
        setups += pass_setups
    values, lines = end_to_end(ops, setups, rss)
    return values, ops, [f"{workload}: {passes} passes, {len(ops)} operations"] + lines


def run_traced(workload, seed) -> tuple[dict, list, list[str]]:
    run_pass(workload, seed, 0, "setup")
    _, untraced = run_pass(workload, seed, 0, "run")
    _, traced = run_pass(workload, seed, 0, "trace")
    spans = tracing.spans_path(workload, seed)
    probes = interpreter_probes() if workload == "cli-oneshot" else {}
    values = per_layer(workload, traced, untraced["ops"], probes)
    lines = [f"{workload}: traced pass of {len(traced['ops'])} operations, spans in {spans.relative_to(ROOT)}"]
    lines += [f"  {name:<46} {values[name]:>12.6g} {unit}" for name, unit in PER_LAYER.items()]
    lines += [f"  known defect: {b}" for b in traced.get("contract_breaks", [])]
    lines.append("  all wrapped functions (calls, inclusive s, self s), by self time:")
    for name, row in sorted(traced["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"    {name:<42} {row['calls']:>8} {row['s']:>10.4f} {row['self_s']:>10.4f}")
    return values, untraced["ops"] + traced["ops"], lines


def run_workload(workload, seed, seconds, trace) -> dict:
    if trace:
        values, ops, lines = run_traced(workload, seed)
        units = PER_LAYER
    else:
        values, ops, lines = run_untraced(workload, seed, seconds)
        units = dict(END_TO_END)
    failures = [op for op in ops if op[3]]
    lines += [f"  FAILED {op[0]}: {op[3]}" for op in failures[:10]]
    print("\n".join(lines), flush=True)
    return {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ywalk" / "__init__.py").is_file():
        print(f"perfbench: no ywalk sources at {SRC}", file=sys.stderr)
        return 2
    hostspeed.pin_to_one_cpu()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
