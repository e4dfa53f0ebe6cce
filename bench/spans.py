"""Span tracing of fabboo's public functions, from outside the library.

`Tracer.wrap` replaces a function or method with one that times each call
and keeps a stack of open spans, so that every span's self time (its
duration minus the time its child spans cover) can be summed per layer.
The wrapper's own bookkeeping is timed too and kept apart as the `trace`
layer, so it is not charged to the caller. Two costs of the wrapper
cannot be timed from inside it: entering and leaving it, which lands in
the caller's self time, and the clock reads and call inside the span,
which land in the span's own. `wrapper_costs` measures both on a wrapped
no-op method, and `Tracer.self_s` moves them to `trace`: the first once
per child call, the second once per call. `instrument` installs the wrappers on freshly
imported fabboo modules and returns a function that removes them again;
nothing in the library is edited.

`layer_metrics` turns the counts, times and observations into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Callable

# BoostedEnsemble divides the instance weight by max(1 +/- ocis, 1e-3)
DIVISOR_FLOOR = 1e-3

MODULES = ("cli", "data", "generators", "prequential", "metrics", "fairness",
           "imbalance", "boosting", "tree", "trace")


def wrapper_costs(calls: int = 20_000, repeats: int = 5):
    """(outer, inner) seconds per call of a wrapped no-op method, medians
    of `repeats`: outer is what the wrapper leaves in its caller's self
    time beyond an unwrapped call of the no-op, inner is the span's own
    duration. The no-op takes two arguments, as most wrapped methods do."""
    class Plain:
        def noop(self, a, b):
            pass

    class Wrapped:
        pass

    pc = time.perf_counter
    samples = []
    plain, wrapped = Plain(), Wrapped()
    for _ in range(repeats):
        tracer = Tracer(costs=(0.0, 0.0))
        Wrapped.noop = tracer.wrap("noop", Plain.noop)
        t0 = pc()
        for i in range(calls):
            wrapped.noop(i, None)
        t_wrapped = pc() - t0
        t0 = pc()
        for i in range(calls):
            plain.noop(i, None)
        t_plain = pc() - t0
        inner = tracer.stats["noop"][1]
        timed = inner + tracer.bookkeeping[0]
        samples.append(((t_wrapped - timed - t_plain) / calls, inner / calls))
    return (max(statistics.median(o for o, _ in samples), 0.0),
            statistics.median(i for _, i in samples))


class Tracer:
    def __init__(self, costs: tuple[float, float] | None = None):
        # one [child seconds, child calls] per open span
        self.stack = []
        # calls, total seconds, self seconds, child calls
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.bookkeeping = [0.0]
        self.outer, self.inner = wrapper_costs() if costs is None else costs
        self.obs = defaultdict(lambda: [0, 0.0])  # observation: count, sum
        self.models = []                 # ensembles built inside a CLI call
        self.probe_s = 0.0               # host probes run inside spans

    def absorb(self, seconds: float) -> None:
        """Keep `seconds` the benchmark held the thread (a host probe) out
        of the innermost open span's self time."""
        if self.stack:
            self.probe_s += seconds
            self.stack[-1][0] += seconds

    def untimed(self, name: str) -> float:
        """Wrapper seconds left in span `name`'s self time: its own calls'
        inner cost and its child calls' outer cost."""
        calls, _, _, children = self.stats[name]
        return calls * self.inner + children * self.outer

    def self_s(self, name: str) -> float:
        """Self seconds of span `name`, without the wrapper's cost."""
        if name not in self.stats:
            return 0.0
        return self.stats[name][2] - self.untimed(name)

    def wrap(self, name, fn, after=None):
        """Time every call of `fn` as span `name`; `after(args, result)`
        runs outside the span to record observations."""
        stats = self.stats[name]
        stack = self.stack
        book = self.bookkeeping
        pc = time.perf_counter

        def traced(*args, **kwargs):
            t_in = pc()
            frame = [0.0, 0]
            stack.append(frame)
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = pc()
                stack.pop()
            d = t1 - t0
            stats[0] += 1
            stats[1] += d
            stats[2] += d - frame[0]
            stats[3] += frame[1]
            if after is not None:
                after(args, result)
            t_out = pc()
            book[0] += t_out - t_in - d
            if stack:
                parent = stack[-1]
                parent[0] += t_out - t_in
                parent[1] += 1
            return result

        return traced

    def observe(self, name, value) -> None:
        o = self.obs[name]
        o[0] += 1
        o[1] += value

    def timed_source(self, source):
        """Iterate `source`, timing each pull as span generators.next."""
        pull = self.wrap("generators.next", iter(source).__next__)
        while True:
            try:
                inst = pull()
            except StopIteration:
                return
            yield inst


def targets(mods):
    """(owner, attribute, span name) of every function `instrument` wraps
    in `mods`, a namespace of freshly imported fabboo modules."""
    tree, boosting = mods.tree.HoeffdingTree, mods.boosting.BoostedEnsemble
    window = mods.boosting.BoundaryWindow
    ledger = mods.fairness.FairnessLedger
    monitor = mods.imbalance.ImbalanceMonitor
    cli = mods.cli
    return [
        (tree, "train_weighted", "tree.train_weighted"),
        (tree, "predict_margin", "tree.predict_margin"),
        (boosting, "predict", "boosting.predict"),
        (boosting, "learn", "boosting.learn"),
        (boosting, "train_instance", "boosting.train_instance"),
        (window, "push", "boosting.window.push"),
        (window, "expire", "boosting.window.expire"),
        (window, "kth_highest", "boosting.window.kth_highest"),
        (ledger, "record", "fairness.record"),
        (ledger, "value", "fairness.value"),
        (ledger, "required_flips", "fairness.required_flips"),
        (monitor, "update", "imbalance.update"),
        (monitor, "ocis", "imbalance.ocis"),
        (mods.metrics.ConfusionCounts, "update", "metrics.update"),
        # run_prequential and the CLI call these through their own globals
        (mods.prequential, "metrics", "metrics.metrics"),
        (mods.prequential, "run_prequential", "prequential.run_prequential"),
        (cli, "run_prequential", "prequential.run_prequential"),
        (cli, "write_trace", "prequential.write_trace"),
        (cli, "load_csv", "data.load_csv"),
        (cli, "shuffled", "data.shuffled"),
        (cli, "save_csv", "data.save_csv"),
        (cli, "build_model", "cli.build_model"),
        (cli, "execute_run", "cli.execute_run"),
        (cli, "main", "cli.main"),
    ]


def code_key(code) -> tuple[str, int, str]:
    """(file, first line, name) of a code object."""
    return code.co_filename, code.co_firstlineno, code.co_name


def span_codes(mods) -> dict[tuple[str, int, str], str]:
    """Module of the span each wrapped function's time is charged to, by
    code key. The pulls from a generated stream are the generators.next
    span, so the generator function counts as wrapped too."""
    codes = {code_key(getattr(owner, attr).__code__): name.split(".")[0]
             for owner, attr, name in targets(mods)}
    codes[code_key(mods.generators.generate.__code__)] = "generators"
    return codes


def instrument(tracer: Tracer, mods) -> Callable[[], None]:
    """Wrap the public entry points of each fabboo module in `mods` (see
    `targets`); returns the undo function."""
    saved = []
    obs = tracer.observe

    def after_learn(args, _):
        model = args[0]
        obs("window.occupancy", len(model.window))
        obs("theta.active", model.theta != 0.5)

    def after_kth(args, _):
        win, k = args[0], args[1]
        obs("window.short", k > len(win))

    def after_build(_, model):
        tracer.models.append(model)

    after = {
        "boosting.learn": after_learn,
        "boosting.window.kth_highest": after_kth,
        "fairness.required_flips": lambda _, n: obs("flips.requested", n),
        "imbalance.ocis":
            lambda _, v: obs("ocis.floor", abs(v) >= 1.0 - DIVISOR_FLOOR),
        "cli.build_model": after_build,
    }
    for owner, attr, name in targets(mods):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, after.get(name)))
    cli = mods.cli
    generate = cli.generate
    saved.append((cli, "generate", generate))
    cli.generate = lambda gen: tracer.timed_source(generate(gen))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo


def tree_counts(models) -> dict[str, float]:
    """Nodes, alternate-subtree nodes and promotions (mean per ensemble)
    and the deepest leaf of any learner, read from each learner's root
    after the run."""
    totals = {"nodes": 0, "alt_nodes": 0, "depth_max": 0, "replacements": 0}

    def children(n):
        if n.children is not None:
            return n.children
        return list(n.cat_children.values()) if n.cat_children else []

    def walk(n, depth, in_alt):
        key = "alt_nodes" if in_alt else "nodes"
        totals[key] += 1
        if not in_alt and depth > totals["depth_max"]:
            totals["depth_max"] = depth
        if n.alt is not None:
            walk(n.alt, 0, True)
        for c in children(n):
            walk(c, depth + 1, in_alt)

    for model in models:
        for learner in model.learners:
            walk(learner.root, 0, False)
            totals["replacements"] += learner.replacements
    count = max(len(models), 1)
    return {k: v if k == "depth_max" else v / count
            for k, v in totals.items()}


def module_self_times(tracer: Tracer) -> dict[str, float]:
    out = dict.fromkeys(MODULES, 0.0)
    for name in tracer.stats:
        out[name.split(".")[0]] += tracer.self_s(name)
        out["trace"] += tracer.untimed(name)
    out["trace"] += tracer.bookkeeping[0]
    return out


def layer_metrics(tracer: Tracer, *, instances: int, traced_wall: float,
                  trace_overhead: float, trace_bytes: int, models,
                  prequential_wall: float):
    """Per-layer metrics as {name: (value, unit)}. `prequential_wall` is
    the sum of wall_s over the summaries the traced call wrote."""
    stats, obs = tracer.stats, tracer.obs

    def calls(name):
        return stats[name][0] if name in stats else 0

    def us_per_call(name):
        c = calls(name)
        return stats[name][1] / c * 1e6 if c else 0.0

    self_s = tracer.self_s

    def self_us(name):
        c = calls(name)
        return self_s(name) / c * 1e6 if c else 0.0

    def mean(name):
        n, total = obs.get(name, (0, 0.0))
        return total / n if n else 0.0

    m = {}
    m["generators.next_us"] = (us_per_call("generators.next"), "us")
    m["data.save_csv_s"] = (self_s("data.save_csv"), "s")
    m["data.load_csv_s"] = (self_s("data.load_csv"), "s")
    m["data.shuffled_s"] = (self_s("data.shuffled"), "s")
    m["prequential.write_trace_s"] = (self_s("prequential.write_trace"), "s")
    m["prequential.write_trace_bytes"] = (trace_bytes, "bytes")
    m["cli.execute_run.self_s"] = (self_s("cli.execute_run"), "s")
    outer = stats["cli.execute_run"][1] if calls("cli.execute_run") \
        else traced_wall
    m["cli.shuffle_overlap"] = (prequential_wall / outer, "ratio")
    m["tree.train_weighted.calls"] = (calls("tree.train_weighted"), "count")
    m["tree.train_weighted.us_per_call"] = (us_per_call("tree.train_weighted"), "us")
    m["tree.train_weighted.self_s"] = (self_s("tree.train_weighted"), "s")
    m["tree.predict_margin.calls_per_inst"] = (
        calls("tree.predict_margin") / instances, "count")
    m["tree.predict_margin.us_per_call"] = (us_per_call("tree.predict_margin"), "us")
    for key, value in tree_counts(models).items():
        m[f"tree.{key}"] = (value, "count")
    for name in ("predict", "train_instance", "learn"):
        m[f"boosting.{name}.self_us"] = (self_us(f"boosting.{name}"), "us")
    for op in ("push", "expire", "kth_highest"):
        m[f"boosting.window.{op}.calls"] = (calls(f"boosting.window.{op}"), "count")
        m[f"boosting.window.{op}.us_per_call"] = (
            us_per_call(f"boosting.window.{op}"), "us")
    m["boosting.window.occupancy_mean"] = (mean("window.occupancy"), "count")
    m["boosting.window.short_share"] = (mean("window.short"), "ratio")
    m["boosting.theta_active_share"] = (mean("theta.active"), "ratio")
    for op in ("record", "value", "required_flips"):
        m[f"fairness.{op}.calls"] = (calls(f"fairness.{op}"), "count")
        m[f"fairness.{op}.us_per_call"] = (us_per_call(f"fairness.{op}"), "us")
    m["fairness.flips_requested_mean"] = (mean("flips.requested"), "count")
    m["imbalance.update.us_per_call"] = (us_per_call("imbalance.update"), "us")
    m["imbalance.ocis.us_per_call"] = (us_per_call("imbalance.ocis"), "us")
    m["imbalance.floor_share"] = (mean("ocis.floor"), "ratio")
    m["metrics.metrics.calls"] = (calls("metrics.metrics"), "count")
    m["metrics.metrics.us_per_call"] = (us_per_call("metrics.metrics"), "us")
    m["prequential.self_s"] = (self_s("prequential.run_prequential"), "s")
    m["trace_overhead"] = (trace_overhead, "ratio")
    for mod, seconds in module_self_times(tracer).items():
        m[f"self_s.{mod}"] = (seconds, "s")
    return m
