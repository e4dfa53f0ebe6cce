"""The four benchmark workloads, each driven through a public entry point.

A workload has four steps. `prepare` makes the run's inputs from the seed,
once per run. `setup` does what comes before the first arrival and is
what `setup_s` times: for a prequential workload it builds the source
and the model as a user would, and for a CLI workload it makes the same
`cli.main` call on a one-instance input. `call` is the timed call.
`collect` writes or reads the outputs after the timed call, checks them
with the oracle and digests them. `pass_s` is the unscaled time of one
pass on the 2-vCPU machine the benchmark was written on; a run makes
--seconds / pass_s passes, at least two. `stamped` workloads have their
source stamped per arrival (see timing.py); the CLI workloads are not
hooked at all. README.md says why each workload exists and which layers
it loads.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import oracle

# every workload's model is evaluated on the SP ledger, also osboost's
NOTION = "sp"
SMOOTHING = 1.0    # EvalConfig and ExperimentConfig default
DECAY = 0.9        # reporting imbalance-monitor decay, same default


class Collected(SimpleNamespace):
    """digest, problems, instances, quality, models, trace_bytes, and
    runs: (wall_s, instances) from each run_prequential summary."""


class PrequentialWorkload:
    """A preset stream, generated lazily, through run_prequential and a
    BoostedEnsemble built by the caller."""

    pass_s = 10.0
    learners = 20
    stamped = True

    def __init__(self, seed: int):
        self.seed = seed
        self.describe = (f"{self.preset}, {self.method}/"
                         f"{self.notion or 'none'}, N={self.learners}, "
                         f"{self.length} arrivals, single shuffle")

    def prepare(self, mods, work: Path) -> None:
        pass

    def setup(self, mods, out: Path):
        fb = mods.fabboo
        gen = fb.with_overrides(fb.preset(self.preset), length=self.length,
                                seed=self.seed)
        notion = fb.Notion(self.notion) if self.notion else None
        params = fb.method_params(self.method, notion,
                                  learners=self.learners)
        model = fb.BoostedEnsemble(params, gen.schema().kinds())
        eval_cfg = fb.EvalConfig(stride=1, trace_notion=fb.Notion(NOTION),
                                 decay=DECAY, smoothing=SMOOTHING)
        return SimpleNamespace(model=model, source=fb.generate(gen),
                               eval_cfg=eval_cfg)

    def call(self, mods, ctx, stamps, tracer) -> None:
        source = ctx.source
        if stamps is not None:
            source = stamps.wrap(source)
        if tracer is not None:
            source = tracer.timed_source(source)
        ctx.trace, ctx.summary = mods.prequential.run_prequential(
            ctx.model, source, ctx.eval_cfg)

    def collect(self, mods, ctx, out: Path) -> Collected:
        run_dir = out / "shuffle-00"
        run_dir.mkdir(parents=True)
        mods.prequential.write_trace(run_dir / "trace.csv", ctx.trace)
        (run_dir / "summary.txt").write_text(ctx.summary.to_text(),
                                             encoding="utf-8")
        problems = oracle.check_shuffle(run_dir, notion=NOTION,
                                        smoothing=SMOOTHING, decay=DECAY)
        if ctx.summary.instances != self.length:
            problems.append(f"{ctx.summary.instances} instances evaluated, "
                            f"{self.length} generated")
        return Collected(
            digest=oracle.run_dir_digest(out), problems=problems,
            instances=ctx.summary.instances, models=[ctx.model],
            quality={"bal_acc": ctx.summary.bal_acc,
                     "abs_cum_fair": abs(ctx.summary.cum_sp)},
            trace_bytes=0,
            runs=[(ctx.summary.wall_s, ctx.summary.instances)])


def _cli_main(mods, argv) -> tuple[int, str]:
    """cli.main(argv) with its standard output captured: (exit code,
    what it printed)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = mods.cli.main(argv)
    return rc, buf.getvalue()


def _cli_setup(mods, argv) -> None:
    rc, _ = _cli_main(mods, argv)
    if rc != 0:
        raise RuntimeError(f"set-up call `fabboo {argv[0]}` exited {rc}")


def _failed(problem: str) -> Collected:
    return Collected(problems=[problem], digest="", instances=0, models=[],
                     quality={}, trace_bytes=0, runs=[])


class CsvShuffles:
    """`fabboo run` through cli.main on a CSV exported from ratio_fixed."""

    name = "csv_shuffles"
    pass_s = 10.0
    stamped = False
    rows = 20_000
    shuffles = 4          # at least as many shuffles as cores, up to 4
    learners = 5
    describe = (f"ratio_fixed CSV of {rows} rows, fabboo/sp, N={learners}, "
                f"{shuffles} shuffles, stride 1, via `fabboo run`")

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, mods, work: Path) -> None:
        fb = mods.fabboo
        gen = fb.with_overrides(fb.preset("ratio_fixed"), length=self.rows,
                                seed=self.seed)
        csv_path = work / "ratio_fixed.csv"
        fb.save_csv(csv_path, gen.schema(), fb.generate(gen))
        # the same header and first row, for the set-up call
        self.one_row = work / "one_row.csv"
        with open(csv_path, encoding="utf-8") as fh:
            self.one_row.write_text(fh.readline() + fh.readline(),
                                    encoding="utf-8")
        self.setup_out = work / "setup-run"
        self.config = work / "csv_shuffles.cfg"
        self.config.write_text(
            "[source]\n"
            "kind = csv\n"
            f"path = {csv_path}\n"
            "features = f1:num, f2:num, f3:num, f4:num, f5:num, f6:num, "
            "group:cat(A|B)\n"
            "protected = group=A\n"
            "label = label:cat(pos|neg)=pos\n"
            "order = shuffled\n"
            "\n[method]\n"
            "method = fabboo\n"
            f"fairness = {NOTION}\n"
            f"learners = {self.learners}\n"
            "\n[run]\n"
            f"shuffles = {self.shuffles}\n"
            f"seed = {self.seed}\n"
            "stride = 1\n", encoding="utf-8")

    def setup(self, mods, out: Path):
        _cli_setup(mods, ["run", "--config", str(self.config),
                          "--dataset", str(self.one_row),
                          "--out", str(self.setup_out)])
        return SimpleNamespace(argv=["run", "--config", str(self.config),
                                     "--out", str(out)])

    def call(self, mods, ctx, stamps, tracer) -> None:
        ctx.rc, ctx.printed = _cli_main(mods, ctx.argv)

    def collect(self, mods, ctx, out: Path) -> Collected:
        if ctx.rc != 0:
            return _failed(f"fabboo run exited {ctx.rc}")
        dirs = sorted(out.glob("shuffle-*"))
        problems = []
        if len(dirs) != self.shuffles:
            problems.append(f"{len(dirs)} shuffle directories, "
                            f"expected {self.shuffles}")
        for d in dirs:
            problems += oracle.check_shuffle(d, notion=NOTION,
                                             smoothing=SMOOTHING, decay=DECAY)
        problems += oracle.check_aggregate(out, dirs)
        if ctx.printed != (out / "aggregate.txt").read_text(encoding="utf-8"):
            problems.append("printed aggregate differs from aggregate.txt")
        summaries = [oracle.read_summary(d / "summary.txt") for d in dirs]
        n = max(len(summaries), 1)
        return Collected(
            digest=oracle.run_dir_digest(out), problems=problems,
            instances=sum(int(s["instances"]) for s in summaries),
            models=[],
            quality={"bal_acc": sum(float(s["bal_acc"]) for s in summaries) / n,
                     "abs_cum_fair": sum(abs(float(s["cum_sp"]))
                                         for s in summaries) / n},
            trace_bytes=sum((d / "trace.csv").stat().st_size for d in dirs),
            runs=[(float(s["wall_s"]), int(s["instances"]))
                  for s in summaries])


class ExportSynth:
    """`fabboo export` of the full paper_synth stream through cli.main."""

    name = "export_synth"
    describe = "paper_synth, all 150000 instances, via `fabboo export`"
    pass_s = 4.0
    stamped = False
    checked_rows = 2000   # leading rows compared with a fresh generate()

    def __init__(self, seed: int):
        self.seed = seed

    def argv(self, out: Path, *extra) -> list[str]:
        return ["export", "--preset", "paper_synth", "--seed", str(self.seed),
                *extra, "--out", str(out)]

    def prepare(self, mods, work: Path) -> None:
        self.setup_out = work / "setup-export.csv"

    def setup(self, mods, out: Path):
        _cli_setup(mods, self.argv(self.setup_out, "--length", "1"))
        return SimpleNamespace(argv=self.argv(out / "paper_synth.csv"))

    def call(self, mods, ctx, stamps, tracer) -> None:
        ctx.rc, ctx.printed = _cli_main(mods, ctx.argv)

    def collect(self, mods, ctx, out: Path) -> Collected:
        path = Path(ctx.argv[-1])
        if ctx.rc != 0:
            return _failed(f"fabboo export exited {ctx.rc}")
        problems = []
        fb = mods.fabboo
        gen = fb.with_overrides(fb.preset("paper_synth"), seed=self.seed)
        schema = gen.schema()
        header = ",".join([a.name for a in schema.attributes]
                          + [schema.label_name])
        expected = fb.generate(gen)
        rows = 0
        with open(path, encoding="utf-8", newline="") as fh:
            if fh.readline().rstrip("\r\n") != header:
                problems.append("exported CSV header differs from the schema")
            for line in fh:
                rows += 1
                if rows <= self.checked_rows and not problems:
                    inst = next(expected)
                    want = ",".join(
                        [repr(v) if isinstance(v, float) else v
                         for v in inst.features]
                        + ["pos" if inst.label == 1 else "neg"])
                    if line.rstrip("\r\n") != want:
                        problems.append(f"exported row {rows} differs from "
                                        f"the generated instance")
        if rows != gen.length:
            problems.append(f"{rows} rows exported, {gen.length} expected")
        return Collected(digest=oracle.file_digest(path), problems=problems,
                         instances=rows, models=[], quality={}, trace_bytes=0,
                         runs=[])


class SynthFabboo(PrequentialWorkload):
    name = "synth_fabboo"
    preset, method, notion, length = "paper_synth", "fabboo", NOTION, 24_000


class DriftOsboost(PrequentialWorkload):
    name = "drift_osboost"
    preset, method, notion, length = "drift_sudden", "osboost", None, 30_000


WORKLOADS = {w.name: w for w in (SynthFabboo, DriftOsboost, CsvShuffles,
                                 ExportSynth)}
