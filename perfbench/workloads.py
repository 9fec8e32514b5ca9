"""The benchmark's two workloads, their set-up, their closed-loop run
passes, the output checks and the end-to-end metrics.

Both workloads run under a virtual clock: every run has a `max_evals`
budget and no wall-clock limit, so the work of a run does not depend on how
fast the machine is.  The load generator is this one process and thread; a
run starts when the previous one has ended.

Targets and references are fixed workload data, independent of the program
under test.  An instance's reference is the median objective of 256 random
key vectors (drawn from the workload seed) under the benchmark's own frozen
copy of the decoding rules (`models.py`); its target is a fixed share of
that reference, recorded once so that calibration runs had all reached it
by half of their decoder calls.
"""

import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import instances as generate
import speed
from keyopt import harness
from keyopt.core import Decoder
from keyopt.problems import load_instance, make_decoder
from keyopt.solvers import SOLVER_NAMES, defaults_for
from patching import Slot, captured, patched

HERE = os.path.dirname(os.path.abspath(__file__))

POOL_CAPACITY = 20
REFERENCE_SAMPLES = 256
# Relative tolerance between the program's objective and the benchmark's
# own evaluation of the same solution (summation orders differ).
OBJECTIVE_RTOL = 1e-9
TAIL_BEYOND = 10
MIN_PASSES = 2  # solo-mid checks that a second pass repeats the first
PROBLEMS = ("pmedian", "partition", "hubtree")


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict          # problem -> generator size arguments
    alpha: int           # p-median alpha
    max_evals: dict      # problem -> budget per cell (solo) or per solver (portfolio)
    target_ratio: dict   # problem -> target as a share of the reference
    setup_reps: int      # fresh interpreters timed for setup_s

    @property
    def solo(self) -> bool:
        return self.name == "solo-mid"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solo-mid",
            sizes={"pmedian": (200, 10), "partition": (50, 5), "hubtree": (25, 5)},
            alpha=2,
            max_evals={"pmedian": 5000, "partition": 2000, "hubtree": 2000},
            target_ratio={"pmedian": 0.84, "partition": 0.55, "hubtree": 0.68},
            setup_reps=9,
        ),
        Workload(
            name="portfolio-paper",
            sizes={"pmedian": (900, 200), "partition": (100, 15), "hubtree": (100, 10)},
            alpha=5,
            max_evals={"pmedian": 200, "partition": 200, "hubtree": 200},
            target_ratio={"pmedian": 0.975, "partition": 0.70, "hubtree": 0.75},
            setup_reps=3,
        ),
    )
}


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile of n samples that leaves TAIL_BEYOND
    samples beyond it, or None when n is too small to have one."""
    if n <= TAIL_BEYOND:
        return None
    return math.floor(100 * (n - TAIL_BEYOND) / n)


@dataclass
class Instance:
    problem: str
    path: str
    alpha: int | None
    model: object        # the benchmark's own model (models.py)
    parsed: object = None
    reference: float = math.nan
    target: float = math.nan


class CountingDecoder(Decoder):
    """The end-to-end runs' only per-call wrapper: counts decoder calls and
    reads the clock once, at the first objective at or below the target.

    `itertools.count` advances atomically under the interpreter lock, so
    portfolio threads lose no calls; `calls()` is read after the run.
    """

    def __init__(self, inner: Decoder, target: float):
        self.inner = inner
        self.dimension = inner.dimension
        self.target = target
        self.hit_at = None
        self._ticks = itertools.count()

    def decode(self, keys):
        next(self._ticks)
        fit, artifact = self.inner.decode(keys)
        if self.hit_at is None and fit.objective <= self.target:
            self.hit_at = time.perf_counter()
        return fit, artifact

    def calls(self) -> int:
        return next(self._ticks)


def prepare(workload: Workload, seed: int, workdir: str) -> list:
    """Generate the workload's instances from the seed and write them."""
    os.makedirs(workdir, exist_ok=True)
    out = []
    for index, problem in enumerate(PROBLEMS):
        rng = np.random.default_rng([seed, index])
        alpha = workload.alpha if problem == "pmedian" else None
        extra = {"alpha": alpha} if alpha else {}
        text, model = generate.GENERATORS[problem](rng, *workload.sizes[problem], **extra)
        path = os.path.join(workdir, f"{problem}.txt")
        with open(path, "w") as fh:
            fh.write(text)
        out.append(Instance(problem, path, alpha, model))
    return out


def measure_setup(workload: Workload, insts: list, src: str) -> dict:
    """Set-up time, measured in `setup_reps` fresh interpreters
    (`setup_probe.py`): import of the program, then parsing every instance
    and building its decoder.  Returns the wall-clock medians over the
    interpreters.  The instances are then parsed once more here, untimed,
    for the runs."""
    args = [f"{i.problem}:{i.alpha or ''}:{i.path}" for i in insts]
    probes = []
    for _ in range(workload.setup_reps):
        done = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), src, *args],
                              capture_output=True, text=True, timeout=120, check=True)
        probes.append(json.loads(done.stdout))
    for inst in insts:
        inst.parsed = load_instance(inst.problem, inst.path, alpha=inst.alpha)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "import_s": statistics.median(p["import_s"] for p in probes),
        "parse_s": {i.problem: statistics.median(p["parse_s"][i.problem] for p in probes)
                    for i in insts},
    }


def set_targets(workload: Workload, insts: list, seed: int) -> None:
    """Reference and target per instance, from the benchmark's own model."""
    for index, inst in enumerate(insts):
        keys = np.random.default_rng([seed, index, 7]).random(
            (REFERENCE_SAMPLES, inst.model.dimension))
        inst.reference = statistics.median(inst.model.sample(k) for k in keys)
        inst.target = workload.target_ratio[inst.problem] * inst.reference


def write_bks(insts: list, path: str) -> None:
    """The harness's best-known file, holding each instance's target."""
    with open(path, "w") as fh:
        for inst in insts:
            fh.write(f"{os.path.basename(inst.path)} {inst.target!r}\n")


def run_plan(workload: Workload, seed: int, pass_index: int) -> list:
    """The runs of one pass, as (instance index, method, run seed).

    solo-mid: every solver alone on every instance; the harness derives the
    cell seeds from the workload seed, so every pass repeats the first.
    portfolio-paper: one portfolio run per instance with a fresh seed per
    pass; threads make these runs nondeterministic anyway."""
    if workload.solo:
        return [(i, m, seed) for i in range(len(PROBLEMS)) for m in SOLVER_NAMES]
    return [(i, "portfolio", seed * 1000 + pass_index) for i in range(len(PROBLEMS))]


@dataclass
class RunRecord:
    problem: str
    method: str
    wall: float
    calls: int
    reported: int
    objective: float
    ratio: float
    ttt: float | None
    row: str = ""
    failures: list = field(default_factory=list)
    cpu: float = math.nan  # process CPU seconds of the run
    speed: float = 1.0  # machine-speed factor around the run (speed.factor)


def check_solution(inst: Instance, result, failures: list) -> None:
    """A reported best, decoded again by a fresh decoder, must give the same
    objective and feasibility, and the decoded solution must be valid and
    cost that objective under the benchmark's own model."""
    reported = result.best_fitness
    fit, artifact = make_decoder(inst.problem, inst.parsed).decode(result.best_keys)
    if fit.objective != reported.objective:
        failures.append(f"re-decoded objective {fit.objective!r} != {reported.objective!r}")
    if fit.feasible != reported.feasible:
        failures.append("re-decoded feasibility differs")
    try:
        objective, feasible, errors = inst.model.solution_cost(artifact)
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        objective, feasible, errors = math.nan, False, [f"unreadable solution: {exc}"]
    failures.extend(errors)
    if not errors and not math.isclose(objective, reported.objective, rel_tol=OBJECTIVE_RTOL):
        failures.append(f"solution costs {objective!r} by the benchmark's model, "
                        f"reported {reported.objective!r}")
    if not errors and feasible != reported.feasible:
        failures.append("feasibility differs from the benchmark's model")


def check_pool(pool, result, per_solver: dict, unchecked_inserts: int, failures: list) -> None:
    """The portfolio pool must be sorted and within capacity.  It must be
    clone-free except for at most one clone per entry that pool
    initialisation stored through `insert_unchecked`, its documented
    fallback.  The reported best must be the better of the pool's best and
    the best solver result."""
    objs = pool.objectives()
    if len(objs) > pool.capacity:
        failures.append(f"pool holds {len(objs)} > {pool.capacity} entries")
    if objs != sorted(objs):
        failures.append("pool is not sorted")
    clones = sum(1 for a, b in itertools.pairwise(objs)
                 if abs(a - b) <= pool.eps_clone * max(1.0, abs(a), abs(b)))
    if clones > unchecked_inserts:
        failures.append(f"pool holds {clones} clones, {unchecked_inserts} unchecked inserts")
    best = min(objs[:1] + [r.best_fitness.objective for r in per_solver.values()])
    if result.best_fitness.objective != best:
        failures.append(f"reported {result.best_fitness.objective!r}, best of pool and "
                        f"solvers {best!r}")


def sa_cell_seconds(workload, inst, decoder, seed) -> float:
    """Wall seconds of one simulated-annealing cell alone on `inst`, with
    the workload's budget."""
    t0 = time.perf_counter()
    harness.run_cell(inst.problem, decoder, "sa", defaults_for(inst.problem), seed,
                     None, workload.max_evals[inst.problem], POOL_CAPACITY, False)
    return time.perf_counter() - t0


def solo_run(workload, inst, method, seed, workdir, bks_path, wrap) -> RunRecord:
    """One solver alone on one instance, through the experiment runner."""
    outdir = os.path.join(workdir, f"{inst.problem}-{method}")
    config = harness.ExperimentConfig(
        problem=inst.problem, instances=[inst.path], methods=[method], runs=1,
        max_evals=workload.max_evals[inst.problem], seed=seed, output_dir=outdir,
        alpha=inst.alpha or 1, pool_capacity=POOL_CAPACITY, bks_path=bks_path,
    )
    made = []

    def counting_decoder(problem_id, instance):
        made.append(CountingDecoder(wrap(problem_id, make_decoder(problem_id, instance)), inst.target))
        return made[-1]

    make = Slot("keyopt.harness", "make_decoder")
    with patched([(make, lambda _: counting_decoder)]), \
            captured("keyopt.harness", "run_cell") as cell:
        t0 = time.perf_counter()
        report = harness.run_experiment(config)
        wall = time.perf_counter() - t0
    failures = [f"{name}: {reason}" for name, reason in report.failures]
    if failures or len(report.rows) != 1:
        raise RuntimeError("; ".join(failures) or "expected one result row")
    counter, result = made[0], cell["value"]
    with open(report.files["results"]) as fh:
        row = fh.read().splitlines()[1]
    check_solution(inst, result, failures)
    return _record(inst, method, wall, t0, counter, result, row, failures)


def portfolio_run(workload, inst, decoder, seed, wrap) -> RunRecord:
    """The default solve method: the threaded 8-solver portfolio with
    Q-learning parameter control, through the harness's cell runner."""
    counter = CountingDecoder(wrap(inst.problem, decoder), inst.target)
    params = defaults_for(inst.problem)
    with captured("keyopt.harness", "run_portfolio") as outcome, \
            captured("keyopt.pool:ElitePool", "insert_unchecked") as unchecked:
        t0 = time.perf_counter()
        result = harness.run_cell(
            inst.problem, counter, "portfolio", params, seed,
            None, workload.max_evals[inst.problem], POOL_CAPACITY, True,
        )
        wall = time.perf_counter() - t0
    failures = []
    check_solution(inst, result, failures)
    check_pool(outcome["value"].pool, result, outcome["value"].per_solver,
               unchecked["calls"], failures)
    return _record(inst, "portfolio", wall, t0, counter, result, "", failures)


def _record(inst, method, wall, t0, counter, result, row, failures) -> RunRecord:
    ttt = None if counter.hit_at is None else counter.hit_at - t0
    if ttt is None:
        failures.append(f"target {inst.target!r} not reached")
    objective = result.best_fitness.objective
    return RunRecord(
        problem=inst.problem, method=method, wall=wall, calls=counter.calls(),
        reported=result.evaluations, objective=objective,
        ratio=objective / inst.reference, ttt=ttt, row=row, failures=failures,
    )


def no_wrap(problem_id, decoder):
    return decoder


def run_pass(workload, insts, seed, pass_index, workdir, bks_path, wrap=no_wrap) -> list:
    """Every run of one pass, one after another.  A run that raises is
    recorded as failed and the pass goes on."""
    decoders = {} if workload.solo else {
        inst.problem: make_decoder(inst.problem, inst.parsed) for inst in insts
    }
    records = []
    before = speed.factor()
    for index, method, run_seed in run_plan(workload, seed, pass_index):
        inst = insts[index]
        c0 = time.process_time()
        try:
            if workload.solo:
                rec = solo_run(workload, inst, method, run_seed, workdir, bks_path, wrap)
            else:
                rec = portfolio_run(workload, inst, decoders[inst.problem], run_seed, wrap)
        except Exception as exc:  # noqa: BLE001 - a failed run is counted
            rec = RunRecord(inst.problem, method, math.nan, 0, 0, math.nan, math.nan, None,
                            failures=[f"raised {type(exc).__name__}: {exc}"])
        rec.cpu = time.process_time() - c0
        after = speed.factor(speed.blocks_for(rec.wall if math.isfinite(rec.wall) else 0.0))
        rec.speed = (before + after) / 2
        before = after
        records.append(rec)
    return records


def run_passes(workload, insts, seed, seconds, workdir, bks_path) -> list:
    """Whole passes until the next one would end after `seconds`, and at
    least MIN_PASSES of them."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, insts, seed, len(passes), workdir, bks_path))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + last > seconds:
            return passes


def check_repeats(passes: list) -> None:
    """solo-mid runs are byte-deterministic: every pass must repeat the
    first one's result rows and decoder call counts exactly."""
    for later in passes[1:]:
        for first, rec in zip(passes[0], later):
            if (rec.row, rec.calls) != (first.row, first.calls):
                rec.failures.append(
                    f"repeat differs: {rec.row!r} with {rec.calls} calls, "
                    f"first pass {first.row!r} with {first.calls} calls"
                )


def _rates(timed: list) -> dict:
    """Decoder calls per second for each problem, from (run, seconds)."""
    out = {}
    for problem in PROBLEMS:
        mine = [(r, t) for r, t in timed if r.problem == problem]
        out[problem] = sum(r.calls for r, _ in mine) / sum(t for _, t in mine) if mine else 0.0
    return out


def nominal_walls(records: list) -> list:
    """Each run's wall seconds over its smoothed speed factor: the median
    of the factors of the run and the two runs on either side of it in
    `records`.  Single readings are noisy, and a burst of load elsewhere
    can spoil two in a row; the machine drifts over tens of seconds."""
    return [
        rec.wall / statistics.median(r.speed for r in records[max(0, i - 2): i + 3])
        for i, rec in enumerate(records)
    ]


def end_to_end(passes: list, setup_s: float) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the facts reported beside them:
    time-to-target, its tail, the failed share of runs and the raw
    (not speed-normalised) run times.  Run times are in nominal-machine
    seconds (`nominal_walls`).  Set-up time stays in wall seconds: the
    kernel tracks neither the import nor Floyd-Warshall."""
    runs = [rec for p in passes for rec in p]
    ok = [rec for rec in runs if math.isfinite(rec.wall)]  # those that did not raise
    walls = iter(nominal_walls(runs))  # smoothed across pass boundaries
    timed = [[(r, t) for r, t in zip(p, walls) if math.isfinite(t)] for p in passes]

    metrics = {f"evals_per_s.{p}": (v, "1/s") for p, v in _rates(sum(timed, [])).items()}
    metrics["run_s"] = (statistics.median(sum(t for _, t in p) for p in timed), "s")
    metrics["best_ratio"] = (
        math.exp(statistics.fmean(math.log(r.ratio) for r in ok)) if ok else 0.0, "ratio")
    metrics["setup_s"] = (setup_s, "s")

    ttts = sorted(rec.ttt for rec in ok if rec.ttt is not None)
    pct = tail_percentile(len(ttts))
    tail = float(np.percentile(ttts, pct)) if pct is not None else None
    facts = {
        "passes": len(passes),
        "runs": len(runs),
        "ttt_s": statistics.median(ttts) if ttts else None,
        "ttt_s.tail": tail,
        "ttt_tail_percentile": pct,
        "ttt_samples": len(ttts),
        "ttt_samples_beyond_tail": None if tail is None else sum(1 for t in ttts if t > tail),
        "fail_share": sum(1 for r in runs if r.failures) / len(runs),
        "decoder_calls": sum(r.calls for r in runs),
        "reported_evals": sum(r.reported for r in runs),
        "speed_factor": statistics.median(r.speed for r in runs),
        "raw_evals_per_s": _rates([(r, r.wall) for r in ok]),
        "raw_run_s": statistics.median(sum(r.wall for r in p if r in ok) for p in passes),
    }
    return metrics, facts
