"""fabboo benchmark: one workload per invocation, from the repository root.

    python3 bench/run.py --workload synth_fabboo --seed 1 --seconds 20 --trace 0

Without tracing the run repeats the workload --seconds / pass_s times
(at least twice; pass_s is the workload's nominal pass time) and prints
the end-to-end metrics. With --trace 1 it makes one plain pass, one with
span tracing and one under a stack sampler, and prints the per-layer
metrics instead. Every pass is checked: the oracle, the repeat digest
and, at the golden seed, the recorded digest. Report lines go first; the
last line of standard output is one JSON object. Exit codes: 0 with a
result, 1 when no result could be computed, 2 when the library source is
missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import crosscheck
import spans
from timing import HostClock, Probe, Stamps, scale
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# setup is timed this many times before the passes, and once per pass
SETUP_REPEATS = 5
MIN_PASSES = 2
GOLDEN = BENCH / "golden.json"
MODULES = ("fabboo", "fabboo.cli", "fabboo.data", "fabboo.generators",
           "fabboo.prequential", "fabboo.metrics", "fabboo.fairness",
           "fabboo.imbalance", "fabboo.boosting", "fabboo.tree")


def fresh_import():
    """Import fabboo anew (its modules are dropped from sys.modules first),
    so every setup pays the library's own import."""
    for name in [n for n in sys.modules if n == "fabboo" or n.startswith("fabboo.")]:
        del sys.modules[name]
    mods = {name.rpartition(".")[2]: importlib.import_module(name)
            for name in MODULES}
    return SimpleNamespace(**mods)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "fabboo").glob("*.py")))


class Runner:
    def __init__(self, workload, seconds, work: Path):
        self.wl, self.seconds, self.work = workload, seconds, work
        self.passes = []      # SimpleNamespace per attempted pass
        self.setup_samples = []   # (seconds, host probe seconds)
        self.probe = Probe()
        self.golden = None
        if GOLDEN.exists():
            recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
            if recorded["seed"] == workload.seed:
                self.golden = recorded["sha256"].get(workload.name)

    def setup(self, out: Path):
        r0 = self.probe()
        t0 = time.perf_counter()
        mods = fresh_import()
        ctx = self.wl.setup(mods, out)
        seconds = time.perf_counter() - t0
        self.setup_samples.append((seconds, (r0 + self.probe()) / 2))
        return mods, ctx

    def one_pass(self, mode: str = "plain"):
        """One setup, timed call and check. `mode` is plain, traced (span
        wrappers installed) or sampled (under the stack sampler)."""
        p = SimpleNamespace(index=len(self.passes), mode=mode, ok=False,
                            problems=[], wall=None, instances=None)
        self.passes.append(p)
        out = self.work / f"pass-{p.index:02d}"
        out.mkdir()
        try:
            mods, ctx = self.setup(out)
            stamps = Stamps() if mode == "plain" and self.wl.stamped else None
            tracer = spans.Tracer() if mode == "traced" else None
            undo = spans.instrument(tracer, mods) if tracer else None
            sampler = crosscheck.Sampler(
                spans.span_codes(mods), os.path.dirname(mods.fabboo.__file__)) \
                if mode == "sampled" else contextlib.nullcontext()
            clock = HostClock(self.probe,
                              on_probe=tracer.absorb if tracer else None)
            gc.collect()
            clock.start()
            try:
                with sampler:
                    self.wl.call(mods, ctx, stamps, tracer)
            finally:
                clock.stop()
                if undo is not None:
                    undo()
            p.clock, p.wall, p.scaled = clock, clock.wall, clock.scaled()
            p.tracer, p.stamps, p.sampler = tracer, stamps, sampler
            p.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            got = self.wl.collect(mods, ctx, out)
            if mode != "traced":
                got.models = []   # keep no model alive into the next pass
            p.__dict__.update(vars(got))
            ref = self.passes[0]
            if p.index > 0 and getattr(ref, "digest", None) \
                    and p.digest != ref.digest:
                p.problems.append(f"digest {p.digest[:16]} differs from "
                                  f"pass 0's {ref.digest[:16]}")
            if self.golden is not None and p.digest != self.golden:
                p.problems.append(f"digest {p.digest[:16]} differs from the "
                                  f"golden {self.golden[:16]}")
            p.ok = not p.problems
        except Exception:
            p.problems.append(traceback.format_exc().rstrip())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        for problem in p.problems:
            print(f"pass {p.index} FAILED: {problem}", file=sys.stderr)
        return p

    def run_plain(self):
        for _ in range(SETUP_REPEATS):
            out = self.work / "setup"
            out.mkdir(exist_ok=True)
            self.setup(out)
        # a fixed count, so that every run of a workload has the same median
        for _ in range(max(MIN_PASSES, round(self.seconds / self.wl.pass_s))):
            self.one_pass()

    def measured(self):
        """Passes whose timed call and output collection both finished."""
        return [p for p in self.passes if p.instances]

    def end_to_end(self):
        """End-to-end metrics from host-scaled times (see timing.py), or
        None with the reason when there is nothing to compute them from.

        Pass times and step gaps are scaled slice by slice. A stamped
        workload's step percentiles pool the gaps of all passes; a CLI
        workload, whose arrivals the benchmark does not see, has one step
        sample per pass: its scaled time over its instances."""
        timed = self.measured()
        pass_times = [p.scaled for p in timed]
        if self.wl.stamped:
            scaled = [p.clock.scaled_gaps(p.stamps) for p in timed]
            steps = [gaps[i] for gaps, inside in scaled for i in inside]
            step_note = (f"step latency: {len(steps)} per-arrival gaps "
                         f"pooled over {len(timed)} passes")
        else:
            steps = [p.scaled / p.instances for p in timed]
            step_note = (f"step latency: {len(steps)} mean step times, one "
                         "per pass")
        if len(steps) < 2:
            return None, f"{len(steps)} step latency samples, 2 needed"
        q = statistics.quantiles(steps, n=100, method="inclusive"
                                 if len(steps) < 100 else "exclusive")
        setup = [s * scale(r) for s, r in self.setup_samples]
        metrics = {
            "inst_per_s": (timed[0].instances / statistics.median(pass_times),
                           "1/s"),
            "step_p50_us": (q[49] * 1e6, "us"),
            "step_p99_us": (q[98] * 1e6, "us"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (max(p.rss_mb for p in timed), "MB"),
        }
        probes = self.probe.samples
        notes = [
            f"timed passes: {len(timed)}, wall per pass "
            + ", ".join(f"{p.wall:.3f}" for p in timed) + " s, scaled "
            + ", ".join(f"{t:.3f}" for t in pass_times) + " s",
            f"host probes: {len(probes)}, fastest {min(probes) * 1e3:.3f} ms, "
            f"median {statistics.median(probes) * 1e3:.3f} ms",
            step_note,
            f"setup_s: median of {len(setup)} setups, unscaled median "
            f"{statistics.median(s for s, _ in self.setup_samples):.4f} s",
        ]
        return metrics, notes

    def run_traced(self):
        plain = self.one_pass()
        traced = self.one_pass("traced")
        sampled = self.one_pass("sampled")
        if not (plain.instances and traced.instances and sampled.instances):
            return None, "a pass of the traced run failed"
        tracer = traced.tracer
        metrics = spans.layer_metrics(
            tracer, instances=traced.instances, traced_wall=traced.wall,
            trace_overhead=traced.scaled / plain.scaled,
            trace_bytes=traced.trace_bytes,
            models=traced.models or tracer.models,
            prequential_wall=sum(wall for wall, _ in traced.runs))
        self_s = spans.module_self_times(tracer)
        outside = traced.wall - sum(self_s.values()) - tracer.probe_s
        del self_s["trace"]
        gap, cross, lines = crosscheck.compare(sampled.sampler.counts,
                                               self_s, outside)
        metrics["coverage.max_share_gap"] = (gap, "ratio")
        metrics["coverage.cross_charged_share"] = (cross, "ratio")
        notes = [f"{p.mode} pass: wall {p.wall:.3f} s, {len(p.clock.probes)} "
                 f"host probes, mean {p.clock.host * 1e3:.3f} ms, scaled "
                 f"{p.scaled:.3f} s" for p in (plain, traced, sampled)]
        notes.append(f"wrapper cost moved to trace: {tracer.outer * 1e6:.3f} "
                     f"us per child call from the caller, "
                     f"{tracer.inner * 1e6:.3f} us per call from the span")
        notes.append("self time by module: " + ", ".join(
            f"{m} {metrics[f'self_s.{m}'][0]:.3f}s" for m in spans.MODULES))
        notes += lines
        if gap > crosscheck.SHARE_TOLERANCE:
            traced.ok = False
            traced.problems.append(f"coverage check: span and sampled shares "
                                   f"differ by {gap:.1%}")
            print(f"pass {traced.index} FAILED: coverage", file=sys.stderr)
        return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fabboo" / "__init__.py").is_file():
        print(f"no library source at {SRC / 'fabboo'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload](args.seed)

    work = ROOT / ".bench_work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl.prepare(fresh_import(), work)
        runner = Runner(wl, args.seconds, work)
        if args.trace:
            metrics, notes = runner.run_traced()
        else:
            runner.run_plain()
            metrics, notes = runner.end_to_end() if runner.measured() \
                else (None, "no pass completed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if metrics is None:
        print(f"no result: {notes}", file=sys.stderr)
        return 1

    passes = runner.passes
    failed = sum(not p.ok for p in passes)
    first = passes[0]
    print(f"workload {wl.name}: {wl.describe}")
    print(f"seed {args.seed}, trace {args.trace}, "
          f"{'per-layer' if args.trace else 'end-to-end'} metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    for key, value in getattr(first, "quality", {}).items():
        print(f"  {key:40s} {value:14.6f}")
    if not getattr(first, "quality", None):
        print("  bal_acc, abs_cum_fair: not applicable (no classifier)")
    print(f"  failed_share {failed}/{len(passes)}")
    golden = ("match" if runner.golden and failed == 0 else
              "no recorded digest for this seed" if runner.golden is None
              else "see failures")
    print(f"  digest {getattr(first, 'digest', '')} (golden: {golden})")
    print(f"  machine: nproc {os.cpu_count()}, python "
          f"{platform.python_version()}, src/fabboo lines {src_lines()}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
