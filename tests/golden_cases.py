"""Golden outputs: fixed-seed, evaluation-budget runs whose CSVs must stay
byte-identical across refactors.

Three small instance files live in `tests/golden/`.  For each of them this
module produces:

- `solve/<problem>-<method>-<params>.csv` and `...-trace.csv`: the result
  and trace CSVs of `keyopt solve --max-evals 600` for every solver and
  for the portfolio of all eight, under both parameter sources (`table`,
  `qlearning`);
- `bench/<problem>-<params>.csv`: the `results.csv` of an experiment over
  all eight solvers with small BRKGA/GA/PSO populations, so that their
  generation loops and the parameter controller run within the budget;

plus `grids.txt`, the Q-learning grid of every tuned parameter record.

A fourth instance, `pmedian-n160-p72.txt`, is large enough for the p-median
decoder's nearest-neighbour list (`problems.pmedian.NEAR_WIDTH`); it gets
`solve/pmedian-n160-<method>-table.csv` and `...-trace.csv` for one solver and
for the portfolio.

`decode/pmedian-n900-p200.txt` holds the `repr` of the p-median decoder's
objective for 300 fixed key vectors on a generated instance of the paper's
size (n=900, p=200, alpha=5), one per line.  `decode/partition-b100-r15.txt`
holds the partition decoder's objective and assignment for 300 fixed key
vectors on two generated handover instances of the paper's size (b=100,
r=15): one with room to spare, and one so tight on capacity that about
half of its decodes leave stations unassigned.  `decode/hubtree-n100-p10.txt`
holds the hub-tree decoder's objective and artifact (hubs, each node's hub,
tree edges) for 300 key vectors of the paper's size (n=100, p=10) that one
decoder object decodes in turn, on a generated instance with non-integer
demands.  The stream repeats earlier vectors exactly and changes one key
of the vector before, so that whatever a decoder keeps between calls is
read back, and it includes quarter-grid ties and assignment keys of 0.0
and KEY_MAX.  `decode/partition-stream-b100-r15.txt` holds the partition
decoder's objective and assignment for 300 key vectors that two decoders,
one per instance (a roomy one and a capacity-tight one), decode in turn.
Its stream is shaped like the searches' requests: exact repeats, one
station key moved earlier or later, an ascending scan of one station key
over the Farey intervals in one array changed in place, seed-count keys
including 0.0 and KEY_MAX, two-key changes and quarter-grid ties.

`tests/test_golden.py` compares a fresh set with the committed one.  After a
change that is meant to alter behaviour, rewrite the files with

    PYTHONPATH=src python tests/golden_cases.py

and say in the commit why they moved.
"""

import contextlib
import io
import itertools
import os
import shutil
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import instgen  # noqa: E402

from keyopt.cli import main  # noqa: E402
from keyopt.core import KEY_MAX  # noqa: E402
from keyopt.harness import ExperimentConfig, run_experiment  # noqa: E402
from keyopt.local_search import FAREY_GAPS  # noqa: E402
from keyopt.problems import (  # noqa: E402
    HubTreeDecoder,
    HubTreeInstance,
    PartitionDecoder,
    PMedianDecoder,
    PMedianInstance,
    write_hubtree,
    write_orlib_pmed,
    write_partition,
)
from keyopt.solvers import SOLVER_NAMES, control_grid  # noqa: E402
from keyopt.solvers.params import DEFAULT_TABLES  # noqa: E402

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
MAX_EVALS = 600
SEED = 1
BENCH_RUNS = 2
BENCH_OVERRIDES = {"brkga": {"p": 20.0}, "ga": {"p": 20.0}, "pso": {"p": 10.0}}
PARAM_SOURCES = ("table", "qlearning")
SOLVE_METHODS = (*SOLVER_NAMES, "portfolio")

# problem -> (file name, alpha)
INSTANCES = {
    "pmedian": ("pmedian-n20-p4.txt", 2),
    "partition": ("partition-b8-r3.txt", 1),
    "hubtree": ("hubtree-n8-p3.txt", 1),
}

# The p-median instance that takes the decoder's nearest-neighbour list:
# (file name, alpha), and the methods solved on it with table parameters.
NEAR_LIST_INSTANCE = ("pmedian-n160-p72.txt", 3)
NEAR_LIST_METHODS = ("brkga", "portfolio")

# The paper-size decode digests, relative to the golden directory.
DECODE_DIGEST = "decode/pmedian-n900-p200.txt"
PARTITION_DIGEST = "decode/partition-b100-r15.txt"
HUBTREE_DIGEST = "decode/hubtree-n100-p10.txt"
PARTITION_STREAM_DIGEST = "decode/partition-stream-b100-r15.txt"


def write_instances(directory=GOLDEN_DIR) -> None:
    """The instance files, from fixed generator seeds."""
    rng = np.random.default_rng(20241106)
    write_orlib_pmed(20, instgen.connected_graph_edges(rng, 20), 4,
                     os.path.join(directory, INSTANCES["pmedian"][0]))
    write_partition(instgen.tiny_partition(rng, b=8, r=3),
                    os.path.join(directory, INSTANCES["partition"][0]))
    write_hubtree(instgen.tiny_hubtree(rng, n=8, p=3),
                  os.path.join(directory, INSTANCES["hubtree"][0]))
    # A generator of its own, so that the three files above did not change.
    rng = np.random.default_rng(20261018)
    write_orlib_pmed(160, instgen.connected_graph_edges(rng, 160, extra=0.05), 72,
                     os.path.join(directory, NEAR_LIST_INSTANCE[0]))


def instance_path(problem: str) -> str:
    return os.path.join(GOLDEN_DIR, INSTANCES[problem][0])


def output_names() -> list:
    """Every output file, relative to the golden directory."""
    names = ["grids.txt"]
    for problem in INSTANCES:
        for source in PARAM_SOURCES:
            for method in SOLVE_METHODS:
                stem = f"solve/{problem}-{method}-{source}"
                names += [f"{stem}.csv", f"{stem}-trace.csv"]
            names.append(f"bench/{problem}-{source}.csv")
    for method in NEAR_LIST_METHODS:
        stem = f"solve/{near_list_stem(method)}"
        names += [f"{stem}.csv", f"{stem}-trace.csv"]
    return names


def near_list_stem(method: str) -> str:
    return f"pmedian-n160-{method}-table"


def write_grids(path) -> None:
    with open(path, "w") as fh:
        for table, records in DEFAULT_TABLES.items():
            for solver in SOLVER_NAMES:
                grid = control_grid(solver, records[solver])
                fh.write(f"{table} {solver} {grid.names!r} {grid.values!r} {grid.initial!r}\n")


def write_solve(problem: str, method: str, source: str, stem: str,
                path=None, alpha=None) -> None:
    if path is None:
        path, alpha = instance_path(problem), INSTANCES[problem][1]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "solve", "--problem", problem, "--instance", path,
            "--alpha", str(alpha), "--method", method, "--max-evals", str(MAX_EVALS),
            "--seed", str(SEED), "--params", source,
            "--out", f"{stem}.csv", "--trace", f"{stem}-trace.csv",
        ])
    if code != 0:
        raise RuntimeError(f"solve {problem}/{method}/{source} exited with {code}")


def write_bench(problem: str, source: str, path, scratch) -> None:
    _, alpha = INSTANCES[problem]
    config = ExperimentConfig(
        problem=problem, instances=[instance_path(problem)], methods=list(SOLVER_NAMES),
        runs=BENCH_RUNS, max_evals=MAX_EVALS, seed=SEED, output_dir=scratch,
        alpha=alpha, params_mode=source,
        overrides={k: dict(v) for k, v in BENCH_OVERRIDES.items()},
    )
    report = run_experiment(config)
    if report.failures:
        raise RuntimeError(f"bench {problem}/{source} failed: {report.failures}")
    shutil.copyfile(report.files["results"], path)


def write_decode_digest(path) -> None:
    """The decoder's objective for random, quarter-grid and constant key
    vectors on a generated metric instance, one `repr` per line."""
    n, p, alpha = 900, 200, 5
    rng = np.random.default_rng(20261019)
    decoder = PMedianDecoder(PMedianInstance(dist=instgen.metric_distances(rng, n),
                                             p=p, alpha=alpha))
    with open(path, "w") as fh:
        for i in range(300):
            keys = rng.random(p)
            if i % 3 == 1:
                keys = np.floor(keys * 4) / 4
            elif i % 3 == 2:
                keys = np.full(p, keys[0])
            fh.write(f"{decoder.decode(keys)[0].objective!r}\n")


def write_partition_digest(path) -> None:
    """The partition decoder's objective and assignment for random and
    quarter-grid station keys, with seed-count keys at the edges of their
    range, on a roomy and a capacity-tight instance; one vector per line."""
    b, r = 100, 15
    rng = np.random.default_rng(20261020)
    roomy = PartitionDecoder(instgen.handover_partition(rng, b, r))
    tight = PartitionDecoder(instgen.handover_partition(rng, b, r, slack=1.02))
    seed_keys = (0.0, 1e-9, 0.5, KEY_MAX)
    with open(path, "w") as fh:
        for i in range(300):
            keys = rng.random(b + 1)
            if i % 7 == 3:
                keys[:b] = np.floor(keys[:b] * 4) / 4
            if i % 5 < len(seed_keys):
                keys[b] = seed_keys[i % 5]
            fit, assignment = (tight if i % 3 == 2 else roomy).decode(keys)
            fh.write(f"{fit.objective!r} {' '.join(map(str, assignment))}\n")


def write_hubtree_digest(path) -> None:
    """The hub-tree decoder's objective and artifact for a stream of key
    vectors that one decoder decodes in order, on an instance with
    non-integer demands; one vector per line.  The stream cycles through a
    fresh random vector, a change of one node key, one assignment key and
    one arc key of the vector before, an exact repeat of an earlier vector,
    and a quarter-grid vector whose assignment keys include 0.0 and
    KEY_MAX."""
    n, p = 100, 10
    rng = np.random.default_rng(20261021)
    demand = rng.random((n, n)) * 20.0
    np.fill_diagonal(demand, 0.0)
    decoder = HubTreeDecoder(HubTreeInstance(
        cost=instgen.metric_distances(rng, n) * 100.0, demand=demand, hubs=p, discount=0.4))
    dim = decoder.dimension
    segments = ((0, n), (n, 2 * n - p), (2 * n - p, dim))  # node, assignment, arc keys
    seen = []
    keys = rng.random(dim)
    with open(path, "w") as fh:
        for i in range(300):
            step = i % 6
            if step == 0:
                keys = rng.random(dim)
            elif step <= 3:
                keys = keys.copy()
                keys[rng.integers(*segments[step - 1])] = rng.random()
            elif step == 4:
                keys = seen[rng.integers(len(seen))].copy()
            else:
                keys = np.floor(rng.random(dim) * 4) / 4
                edge = rng.choice(np.arange(n, 2 * n - p), size=8, replace=False)
                keys[edge[:4]] = 0.0
                keys[edge[4:]] = KEY_MAX
            seen.append(keys)
            fit, (hubs, hub_of, tree) = decoder.decode(keys)
            fh.write(f"{fit.objective!r} {' '.join(map(str, hubs))}"
                     f" | {' '.join(map(str, hub_of))}"
                     f" | {' '.join(f'{a}-{b}' for a, b in tree)}\n")


def partition_request_stream(rng, b):
    """Endless station-plus-seed key vectors of length b + 1, shaped like
    the searches' decode requests.  One cycle: a fresh vector, an exact
    repeat, one station key moved earlier and one moved later, an ascending
    scan of one station key (one draw per Farey interval) that changes a
    single array in place, the seed key at 0.0, KEY_MAX and a random value,
    a two-key change, a quarter-grid vector and a repeat of an earlier
    vector.  The scan yields the same array each time, so a decoder that
    kept a reference to it would see it change."""
    seen = []
    while True:
        keys = rng.random(b + 1)
        yield keys
        yield keys.copy()
        for later in (False, True):
            keys = keys.copy()
            s = rng.integers(b)
            keys[s] += rng.random() * (KEY_MAX - keys[s]) if later else -rng.random() * keys[s]
            yield keys
        seen.append(keys)
        work = keys.copy()
        s = rng.integers(b)
        for lo, hi in FAREY_GAPS:
            work[s] = min(rng.uniform(lo, hi), KEY_MAX)
            yield work
        for seed_key in (0.0, KEY_MAX, rng.random()):
            keys = keys.copy()
            keys[b] = seed_key
            yield keys
        keys = keys.copy()
        keys[rng.choice(b, size=2, replace=False)] = rng.random(2)
        yield keys
        seen.append(keys)
        grid = np.floor(rng.random(b + 1) * 4) / 4
        grid[b] = keys[b]
        yield grid
        yield seen[rng.integers(len(seen))].copy()


def write_partition_stream_digest(path) -> None:
    """The partition decoder's objective and assignment for a request-shaped
    stream of key vectors (`partition_request_stream`): 150 through one
    decoder on a roomy instance and then 150 through one decoder on a
    capacity-tight instance; one vector per line."""
    b, r = 100, 15
    rng = np.random.default_rng(20261022)
    roomy = instgen.handover_partition(rng, b, r)
    tight = instgen.handover_partition(rng, b, r, slack=1.02)
    with open(path, "w") as fh:
        for inst in (roomy, tight):
            decoder = PartitionDecoder(inst)
            for keys in itertools.islice(partition_request_stream(rng, b), 150):
                fit, assignment = decoder.decode(keys)
                fh.write(f"{fit.objective!r} {' '.join(map(str, assignment))}\n")


def write_outputs(directory) -> None:
    """Every output file under `directory`, from the committed instances."""
    os.makedirs(os.path.join(directory, "solve"), exist_ok=True)
    os.makedirs(os.path.join(directory, "bench"), exist_ok=True)
    write_grids(os.path.join(directory, "grids.txt"))
    with tempfile.TemporaryDirectory() as scratch:
        for problem in INSTANCES:
            for source in PARAM_SOURCES:
                for method in SOLVE_METHODS:
                    write_solve(problem, method, source,
                                os.path.join(directory, f"solve/{problem}-{method}-{source}"))
                write_bench(problem, source,
                            os.path.join(directory, f"bench/{problem}-{source}.csv"), scratch)
    name, alpha = NEAR_LIST_INSTANCE
    for method in NEAR_LIST_METHODS:
        write_solve("pmedian", method, "table",
                    os.path.join(directory, f"solve/{near_list_stem(method)}"),
                    path=os.path.join(GOLDEN_DIR, name), alpha=alpha)


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(GOLDEN_DIR, NEAR_LIST_INSTANCE[0])):
        write_instances()
    write_outputs(GOLDEN_DIR)
    write_decode_digest(os.path.join(GOLDEN_DIR, DECODE_DIGEST))
    write_partition_digest(os.path.join(GOLDEN_DIR, PARTITION_DIGEST))
    write_hubtree_digest(os.path.join(GOLDEN_DIR, HUBTREE_DIGEST))
    write_partition_stream_digest(os.path.join(GOLDEN_DIR, PARTITION_STREAM_DIGEST))
    print(f"wrote {len(output_names()) + 4} files under {GOLDEN_DIR}")
