"""Command-line front end: execute runs, parameter sweeps and stream exports.

Exit codes: 0 success, 1 runtime failure, 2 invalid configuration,
3 data error.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import parallel
from .boosting import BoostedEnsemble
from .config import (KEYS, SWEEPS, ConfigError, ExperimentConfig,
                     config_to_text, parse_config_file)
from .data import DataError, load_csv, save_csv, shuffled
from .generators import generate, preset, with_overrides
# write_trace is not called here, but bench/spans.py wraps it by this
# module's name
from .prequential import (Summary, TraceWriter, run_prequential,
                          write_trace)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_DATA = 3

_AGGREGATED = ("bal_acc", "gmean", "recall", "kappa",
               "cum_sp", "cum_eqop", "cum_peq", "wall_s")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fabboo",
        description="Stream classification with online fairness- and "
                    "class-imbalance-aware boosting.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="experiment config file")
        for name, key in KEYS.items():
            if key.flag:   # a number flag is converted by argparse
                p.add_argument(key.flag, dest=name, help=key.help,
                               choices=key.choices,
                               type={int: int, float: float}.get(key.parse))

    run_p = sub.add_parser("run", help="execute one experiment (all shuffles)")
    add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="repeat an experiment over a "
                                           "hyperparameter grid")
    add_common(sweep_p)
    sweep_p.add_argument("--param", required=True,
                         choices=sorted(SWEEPS),
                         help="parameter to sweep (N=learners, M=window)")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated parameter values")

    export_p = sub.add_parser("export", help="write a synthetic stream as CSV")
    export_p.add_argument("--preset", dest="preset_name", required=True)
    export_p.add_argument("--length", type=int)
    export_p.add_argument("--seed", type=int, default=1)
    export_p.add_argument("--out", required=True, help="destination CSV path")
    return parser


def apply_flags(cfg: ExperimentConfig, args) -> ExperimentConfig:
    """`cfg` with the given run/sweep flags applied. Each flag's dest is the
    field it sets, and its value is read as the field's config key is; a
    flag declared to switch the source kind also sets the kind, and two
    such flags are a ConfigError."""
    updates = {}
    for name, key in KEYS.items():
        if getattr(args, name, None) is not None:
            updates[name] = key.parse(getattr(args, name))
            if key.switch:
                if "source_kind" in updates:
                    raise ConfigError(f"give {switch} or {key.flag}, not both")
                switch = key.flag
                updates["source_kind"] = key.kind
    return replace(cfg, **updates)


def build_model(cfg: ExperimentConfig, kinds) -> BoostedEnsemble:
    return BoostedEnsemble(cfg.ensemble_params(), kinds)


def build_sources(cfg: ExperimentConfig):
    """(kinds, arrivals per shuffle, source) for a run, where source(i)
    returns shuffle i's instances. A CSV dataset is loaded here, once, and
    one without data rows is a DataError.

    Shuffle i uses seed = base seed + i regardless of method, so paired
    method comparisons see identical instance orders.
    """
    if cfg.source_kind == "csv":
        instances = load_csv(cfg.csv_path, cfg.schema)
        if not instances:
            raise DataError(f"{cfg.csv_path}: no data rows after the header")

        def source(i):
            if cfg.order == "stored":
                return instances
            return shuffled(instances, cfg.seed + i)

        return cfg.schema.kinds(), len(instances), source
    gen = cfg.generator_config()
    return (gen.schema().kinds(), gen.length,
            lambda i: generate(with_overrides(gen, seed=cfg.seed + i)))


def _mean_std(summaries: list[Summary], key: str) -> tuple[float, float]:
    """Mean and sample standard deviation (0 for one shuffle) of `key`."""
    values = [getattr(s, key) for s in summaries]
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return statistics.fmean(values), std


def aggregate_text(summaries: list[Summary]) -> str:
    lines = [f"shuffles = {len(summaries)}"]
    for key in _AGGREGATED:
        mean, std = _mean_std(summaries, key)
        lines.append(f"{key} = {mean:.6f} ± {std:.6f}")
    return "\n".join(lines) + "\n"


def _run_shuffle(cfg: ExperimentConfig, kinds, source, i: int,
                 cpus: int) -> Summary:
    """Evaluate shuffle i on up to `cpus` CPUs, writing each trace row to
    its trace.csv as the run makes it, then its summary. A failed run
    leaves the rows before the failing arrival and no summary."""
    model = build_model(cfg, kinds)
    run_dir = Path(cfg.out_dir) / f"shuffle-{i:02d}"
    run_dir.mkdir(parents=True, exist_ok=True)
    with open(run_dir / "trace.csv", "w", encoding="utf-8") as fh:
        _, summary = run_prequential(model, source(i), cfg.eval_config(),
                                     TraceWriter(fh), cpus=cpus)
    (run_dir / "summary.txt").write_text(summary.to_text(), encoding="utf-8")
    return summary


def execute_run(cfg: ExperimentConfig) -> list[Summary]:
    """Run every shuffle, writing one trace + summary per shuffle and the
    aggregate summary; returns the per-shuffle summaries."""
    cfg.validate()
    out_root = Path(cfg.out_dir)
    kinds, arrivals, source = build_sources(cfg)
    shuffle = partial(_run_shuffle, cfg, kinds, source)
    summaries = parallel.each(shuffle, cfg.shuffles, arrivals)
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "aggregate.txt").write_text(aggregate_text(summaries),
                                            encoding="utf-8")
    (out_root / "config.cfg").write_text(config_to_text(cfg), encoding="utf-8")
    return summaries


def execute_sweep(cfg: ExperimentConfig, param: str, values: list[str]) -> str:
    """Run the experiment once per parameter value; returns the wide table.
    Every value's config is checked before the first run, and a value may
    not repeat an earlier one."""
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    attr = SWEEPS[param]
    out_root = Path(cfg.out_dir)
    runs = {}   # {parsed value: (raw, its config)}
    for raw in values:
        try:
            value = KEYS[attr].parse(raw)
        except ValueError:
            raise ConfigError(f"bad sweep value {raw!r}")
        if value in runs:
            raise ConfigError(f"sweep value {raw!r} repeats "
                              f"{runs[value][0]!r}")
        sub_cfg = replace(cfg, **{attr: value})
        sub_cfg.validate()   # with the sweep's own out_dir
        runs[value] = raw, replace(sub_cfg,
                                   out_dir=str(out_root / f"{param}={raw}"))
    rows = []
    for raw, sub_cfg in runs.values():
        summaries = execute_run(sub_cfg)
        cells = [f"{raw}"]
        for key in _AGGREGATED:
            mean, std = _mean_std(summaries, key)
            cells.append(f"{mean:.4f}±{std:.4f}")
        rows.append(cells)
    header = [param] + list(_AGGREGATED)
    widths = [max(len(header[c]), *(len(r[c]) for r in rows))
              for c in range(len(header))]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    table = "\n".join([fmt.format(*header)] + [fmt.format(*r) for r in rows]) + "\n"
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / f"sweep_{param}.txt").write_text(table, encoding="utf-8")
    return table


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "export":
            gen = with_overrides(preset(args.preset_name), length=args.length,
                                 seed=args.seed)
            Path(args.out).parent.mkdir(parents=True, exist_ok=True)
            save_csv(args.out, gen.schema(), generate(gen))
            print(f"wrote {gen.length} instances to {args.out}")
            return EXIT_OK

        cfg = parse_config_file(args.config) if args.config else ExperimentConfig()
        cfg = apply_flags(cfg, args)
        if args.command == "run":
            execute_run(cfg)
            print((Path(cfg.out_dir) / "aggregate.txt").read_text(
                encoding="utf-8"), end="")
            return EXIT_OK
        values = [v.strip() for v in args.values.split(",") if v.strip()]
        print(execute_sweep(cfg, args.param, values), end="")
        return EXIT_OK
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as e:   # ConfigError included
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # runtime failure
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
