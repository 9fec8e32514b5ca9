"""The traced run: spans at each layer boundary and the per-layer metrics
derived from them.

Each layer is measured with a wrapper around the public function its caller
looks up (a module global, a class attribute or the solver table), so the
program itself is unchanged.  A span is (id, name, start, end, thread CPU,
parent span, thread, extra); spans stay in memory and are written out when
the run ends.  A span's self time is its duration minus that of its
children on the same thread.  The wrappers are installed only for the
traced pass and removed before anything else runs.
"""

import csv
import functools
import gzip
import itertools
import statistics
import threading
import time
from collections import defaultdict

from keyopt.core import Decoder
from keyopt.solvers import SOLVER_NAMES
from patching import Slot, patched

NEIGHBORHOODS = ("swap", "farey", "mirror", "nelder_mead")
LAYERS = ("problems", "pool", "variation", "local_search", "solvers", "qlearning")
REPORT_FUNCTIONS = ("read_bks", "write_results", "write_summary",
                    "profile_csv_from_rows", "wilcoxon_csv_from_rows")


# Did a neighbourhood search return something better than the incumbent
# rvnd passed in?  Positions are those of rvnd's calls.
def _improved(args, out):
    return out[1].objective < args[3].objective  # (keys, decoder, rng, fitness, ...)


def _nm_improved(args, out):
    return out[1].objective < args[5][0].objective  # (k1, k2, k3, decoder, rng, fits, ...)


# (owner, attribute, span name, extra from (args, result)).  The owner is
# where the caller looks the name up: a module, "module:Class", or
# "module:SOLVERS" for the solver table.
PATCHES = (
    [
        ("keyopt.harness", "run_experiment", "harness.run_experiment", None),
        ("keyopt.harness", "run_cell", "harness.run_cell", lambda a, o: o.evaluations),
        ("keyopt.harness", "load_instance", "problems.parse", lambda a, o: a[0]),
        ("keyopt.harness", "init_pool", "pool.init", None),
        ("keyopt.harness", "run_portfolio", "solvers.portfolio", None),
        ("keyopt.solvers.portfolio", "init_pool", "pool.init", None),
        ("keyopt.pool:ElitePool", "offer", "pool.offer", lambda a, o: bool(o)),
        ("keyopt.pool:ElitePool", "sample", "pool.sample", None),
        ("keyopt.pool", "shake", "variation.shake", None),
        ("keyopt.solvers.trajectory", "shake", "variation.shake", None),
        ("keyopt.local_search", "blend", "variation.blend", None),
        ("keyopt.solvers.population", "blend", "variation.blend", None),
        ("keyopt.local_search", "swap_ls", "local_search.swap", _improved),
        ("keyopt.local_search", "farey_ls", "local_search.farey", _improved),
        ("keyopt.local_search", "mirror_ls", "local_search.mirror", _improved),
        ("keyopt.local_search", "nelder_mead_ls", "local_search.nelder_mead", _nm_improved),
        ("keyopt.solvers.trajectory", "rvnd", "local_search.rvnd", None),
        ("keyopt.solvers.population", "rvnd", "local_search.rvnd", None),
        ("keyopt.qlearning:QController", "select", "qlearning.select", None),
        ("keyopt.qlearning:QController", "observe", "qlearning.observe", None),
    ]
    + [("keyopt.harness", fn, "harness.report", None) for fn in REPORT_FUNCTIONS]
    + [("keyopt.solvers.portfolio:SOLVERS", name, f"solvers.{name}", lambda a, o: len(o.trace))
       for name in SOLVER_NAMES]
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        # (span, thread) that spans opening on another thread's empty stack
        # attach to: the run whose portfolio started those threads.
        self.root = (0, None)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.origin = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, extra=None):
        """`fn` with a span around every call.  A `harness.run_cell` span
        becomes the root for the portfolio's solver threads."""
        spans, ids, tracer = self.spans, self._ids, self
        is_root = name == "harness.run_cell"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(ids)
            thread = threading.get_ident()
            if stack:
                parent = stack[-1]
            else:
                root, root_thread = tracer.root
                parent = root if thread != root_thread else 0
            if is_root:
                tracer.root = (sid, thread)
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            out = marker = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - c0
                stack.pop()
                if extra is not None and out is not None:
                    try:
                        marker = extra(args, out)
                    except (AttributeError, IndexError, TypeError):
                        marker = None
                spans.append((sid, name, t0, t1, cpu, parent, thread, marker))

        return traced

    def decoder(self, problem_id, decoder):
        return TracedDecoder(self, problem_id, decoder)

    def installed(self):
        """Context manager installing every wrapper in PATCHES; names the
        program no longer has are listed in `absent`."""
        changes = []
        for owner, attr, name, extra in PATCHES:
            try:
                slot = Slot(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{owner}.{attr} not found")
                continue
            changes.append((slot, functools.partial(self.wrap, name, extra=extra)))
        return patched(changes)

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start_s", "end_s", "cpu_s", "parent", "thread", "extra"))
            for sid, name, t0, t1, cpu, parent, thread, extra in sorted(self.spans):
                out.writerow((sid, name, f"{t0 - self.origin:.7f}", f"{t1 - self.origin:.7f}",
                              f"{cpu:.7f}", parent, thread, "" if extra is None else extra))


class TracedDecoder(Decoder):
    """Decoder contract wrapper recording one `problems.decode` span per
    call, tagged with the problem id."""

    def __init__(self, tracer: Tracer, problem_id: str, inner: Decoder):
        self.inner = inner
        self.dimension = inner.dimension
        self._decode = tracer.wrap("problems.decode", inner.decode, lambda a, o: problem_id)

    def decode(self, keys):
        return self._decode(keys)


def _mean_us(durations) -> float:
    return 1e6 * statistics.fmean(durations) if durations else 0.0


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, process_cpu_s: float) -> dict:
    """Per-layer metrics from the recorded spans, as name -> (value, unit).

    A decoder call counts toward every solver, neighbourhood, RVND and
    pool-initialisation span that encloses it."""
    spans = {s[0]: s for s in tracer.spans}
    child_time = defaultdict(float)
    for sid, name, t0, t1, cpu, parent, thread, extra in spans.values():
        up = spans.get(parent)
        if up is not None and up[6] == thread:
            child_time[parent] += t1 - t0
    self_time = {sid: (s[3] - s[2]) - child_time[sid] for sid, s in spans.items()}

    context = {0: frozenset()}

    def ctx(sid):
        """Names of the span and all its ancestors."""
        path = []
        while sid not in context:
            path.append(sid)
            sid = spans[sid][5]
        names = context[sid]
        for s in reversed(path):
            names = names | {spans[s][1]}
            context[s] = names
        return names

    by_name = defaultdict(list)
    for s in spans.values():
        by_name[s[1]].append(s)

    def wall(name):
        return [s[3] - s[2] for s in by_name[name]]

    decodes = by_name["problems.decode"]
    calls = len(decodes)
    under = defaultdict(int)
    for s in decodes:
        for name in ctx(s[5]):
            under[name] += 1

    m = {}
    decode_cpu = 0.0
    for problem in ("pmedian", "partition", "hubtree"):
        cpus = [s[4] for s in decodes if s[7] == problem]
        decode_cpu += sum(cpus)
        m[f"problems.decode_cpu_us.{problem}"] = (_mean_us(cpus), "us")
    m["problems.decode_cpu_share"] = (_share(decode_cpu, process_cpu_s), "ratio")

    reported = sum(s[7] for s in by_name["harness.run_cell"] if s[7] is not None)
    m["core.decoder_calls"] = (calls, "count")
    m["core.reported_evals"] = (reported, "count")
    m["core.unreported_share"] = (_share(calls - reported, calls), "ratio")

    offers = by_name["pool.offer"]
    m["pool.init_s"] = (sum(wall("pool.init")), "s")
    m["pool.init_calls"] = (under["pool.init"], "count")
    m["pool.init_share"] = (_share(under["pool.init"], calls), "ratio")
    m["pool.offers"] = (len(offers), "count")
    m["pool.offer_accept_ratio"] = (_share(sum(1 for s in offers if s[7]), len(offers)), "ratio")
    m["pool.offer_us"] = (_mean_us(wall("pool.offer")), "us")
    m["pool.samples"] = (len(by_name["pool.sample"]), "count")
    m["pool.sample_us"] = (_mean_us(wall("pool.sample")), "us")

    for op in ("shake", "blend"):
        m[f"variation.{op}s"] = (len(by_name[f"variation.{op}"]), "count")
        m[f"variation.{op}_us"] = (_mean_us(wall(f"variation.{op}")), "us")

    for nb in NEIGHBORHOODS:
        runs = by_name[f"local_search.{nb}"]
        m[f"local_search.{nb}.calls"] = (len(runs), "count")
        m[f"local_search.{nb}.evals"] = (under[f"local_search.{nb}"], "count")
        m[f"local_search.{nb}.improve_ratio"] = (
            _share(sum(1 for s in runs if s[7]), len(runs)), "ratio")
    m["local_search.rvnd_share"] = (_share(under["local_search.rvnd"], calls), "ratio")

    for name in SOLVER_NAMES:
        m[f"solvers.{name}.calls"] = (under[f"solvers.{name}"], "count")
        m[f"solvers.{name}.improvements"] = (
            sum(s[7] for s in by_name[f"solvers.{name}"] if s[7] is not None), "count")

    m["qlearning.selects"] = (len(by_name["qlearning.select"]), "count")
    m["qlearning.select_us"] = (_mean_us(wall("qlearning.select")), "us")
    m["qlearning.observe_us"] = (_mean_us(wall("qlearning.observe")), "us")

    m["harness.cells"] = (len(by_name["harness.run_cell"]), "count")
    m["harness.report_s"] = (sum(wall("harness.report")), "s")
    m["harness.overhead_s"] = (
        sum(self_time[s[0]] for n in ("harness.run_experiment", "harness.run_cell")
            for s in by_name[n]), "s")

    # The portfolio span's own time is its wait for the solver threads.
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (
            sum(t for sid, t in self_time.items()
                if spans[sid][1].startswith(layer + ".") and spans[sid][1] != "solvers.portfolio"),
            "s")
    return m
