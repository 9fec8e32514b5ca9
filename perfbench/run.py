#!/usr/bin/env python3
"""keyopt benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload solo-mid --seed 1 --seconds 55 --trace 0

Run from the repository root.  The program is imported from `src/` beside
this directory; without it the script exits with an error and prints no
result.  Instances are generated from `--seed`, runs repeat in whole passes
for about `--seconds`, every output is checked, and the last line printed is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` they are
the per-layer ones from a traced pass (see perfbench/README.md).  Run files
go to `.perfbench-out/` at the repository root.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
OVERHEAD_REPEATS = 5
# End-to-end figures printed beside the gated metrics but kept out of the
# JSON result: their spread across seeds is wider than any allowed bound
# (see perfbench/README.md).
REPORTED_UNITS = {"ttt_s": "s", "ttt_s.tail": "s", "fail_share": "ratio"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("solo-mid", "portfolio-paper"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program() -> None:
    """Import keyopt from the checkout's sources."""
    if not os.path.isfile(os.path.join(SRC, "keyopt", "__init__.py")):
        raise SystemExit(f"error: keyopt sources not found in {SRC}")
    sys.path.insert(0, SRC)
    import keyopt.harness  # noqa: F401 - imports the whole program


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def counter_overhead_us(wl, workload, insts, seed) -> float:
    """Counter-wrapped minus bare decoder on one solo cell, per call.  The
    cell is the workload's cheapest decoder, where the counter weighs most;
    the two sides alternate and each side's fastest repeat is used."""
    inst = insts[0] if workload.solo else insts[2]  # pmedian n=200, hubtree n=100
    decoder = wl.make_decoder(inst.problem, inst.parsed)
    walls = {"bare": [], "counter": []}
    for _ in range(OVERHEAD_REPEATS):
        counter = wl.CountingDecoder(decoder, -math.inf)
        walls["bare"].append(wl.sa_cell_seconds(workload, inst, decoder, seed))
        walls["counter"].append(wl.sa_cell_seconds(workload, inst, counter, seed))
    return 1e6 * (min(walls["counter"]) - min(walls["bare"])) / counter.calls()


def vs_solo(wl, workload, insts, plain, seed) -> dict:
    """Portfolio calls/s over single-solver calls/s on each paper instance:
    the portfolio side from the untraced pass, the solo side from one
    simulated-annealing cell with the same per-solver budget."""
    ratios = {}
    by_problem = {inst.problem: inst for inst in insts}
    for rec in plain:
        inst = by_problem[rec.problem]
        counter = wl.CountingDecoder(wl.make_decoder(inst.problem, inst.parsed), -math.inf)
        seconds = wl.sa_cell_seconds(workload, inst, counter, seed)
        solo_rate = counter.calls() / seconds
        ratios[inst.problem] = (rec.calls / rec.wall) / solo_rate
    return ratios


def traced_run(wl, tracing, workload, insts, seed, workdir, bks, setup):
    """One untraced pass, the same pass traced, then the overhead probes.
    Returns (passes, per-layer metrics, facts, tracer)."""
    plain = wl.run_pass(workload, insts, seed, 0, workdir, bks)

    tracer = tracing.Tracer()
    with tracer.installed():
        traced = wl.run_pass(workload, insts, seed, 0, workdir, bks, wrap=tracer.decoder)
    passes = [plain, traced]
    plain = [r for r in plain if math.isfinite(r.wall)]  # runs that did not raise

    m = tracing.layer_metrics(tracer, sum(r.cpu for r in traced if math.isfinite(r.wall)))
    for problem, seconds in setup["parse_s"].items():
        m[f"problems.parse_s.{problem}"] = (seconds, "s")
    facts = {"nproc": nproc(), "absent": list(tracer.absent)}
    if workload.solo:
        absent = "no portfolio runs on solo-mid (every solver runs alone, without Q-learning)"
        facts["absent"].append(f"solvers.portfolio.*, qlearning.*: {absent}; they read 0")
        m["solvers.portfolio.cpu_per_wall"] = (0.0, "ratio")
        m["solvers.portfolio.vs_solo"] = (0.0, "ratio")
    else:
        ratios = vs_solo(wl, workload, insts, plain, seed)
        facts["vs_solo_by_problem"] = ratios
        m["solvers.portfolio.cpu_per_wall"] = (
            sum(r.cpu for r in plain) / sum(r.wall for r in plain), "ratio")
        m["solvers.portfolio.vs_solo"] = (
            math.exp(statistics.fmean(math.log(r) for r in ratios.values())), "ratio")
    # Both passes in nominal-machine seconds, so machine drift between them
    # does not read as overhead.
    plain_s = sum(wl.nominal_walls(plain))
    traced_s = sum(wl.nominal_walls([r for r in traced if math.isfinite(r.wall)]))
    m["bench.trace_overhead_s"] = (traced_s - plain_s, "s")
    m["bench.trace_overhead_share"] = (m["bench.trace_overhead_s"][0] / plain_s, "ratio")
    m["bench.counter_overhead_us"] = (counter_overhead_us(wl, workload, insts, seed), "us")
    m["host.nproc"] = (facts["nproc"], "count")
    return passes, m, facts, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import tracing
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{stem}-{os.getpid()}")
    tracer = None
    try:
        insts = wl.prepare(workload, args.seed, workdir)
        setup = wl.measure_setup(workload, insts, SRC)
        wl.set_targets(workload, insts, args.seed)
        bks = os.path.join(workdir, "bks.txt")
        wl.write_bks(insts, bks)
        if args.trace:
            passes, metrics, facts, tracer = traced_run(
                wl, tracing, workload, insts, args.seed, workdir, bks, setup)
        else:
            passes = wl.run_passes(workload, insts, args.seed, args.seconds, workdir, bks)
        if workload.solo:
            wl.check_repeats(passes)
        if not args.trace:
            metrics, facts = wl.end_to_end(passes, setup["setup_s"])
            facts["nproc"] = nproc()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [rec for p in passes for rec in p]
    failed = [rec for rec in runs if rec.failures]
    facts.update(setup=setup,
                 targets={i.problem: {"reference": i.reference, "target": i.target} for i in insts})
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "metrics": {k: v for k, (v, _) in metrics.items()}, "facts": facts,
        "runs": [vars(rec) for rec in runs],
    }
    with open(os.path.join(OUT, f"report-{stem}.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"spans-{stem}.csv.gz"))

    for rec in failed:
        print(f"FAILED {rec.problem}/{rec.method}: {'; '.join(rec.failures)}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} nproc={facts['nproc']}")
    for key, value in facts.items():
        if key not in ("targets", "nproc") and key not in REPORTED_UNITS:
            print(f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    for name, unit in REPORTED_UNITS.items():
        if name in facts:
            value = "n/a" if facts[name] is None else f"{facts[name]:.6g}"
            print(f"{name:40s} {value:>16s} {unit}  (reported, not gated)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
