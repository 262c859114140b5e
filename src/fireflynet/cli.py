"""Command-line front end: train, recall, experiment, sweep.

Configuration is a flat ``key = value`` file (# comments allowed); every
key can also be set or overridden on the command line with repeated
``--set key=value`` flags.  A run key (``RUN_KEYS``) may also be given by
its flag, which overrides it, and every command takes every such flag.
Unknown keys are hard errors, and so are a model key given to recall,
whose saved model fixes them, a run key that the command does not read,
however it was given, and a missing or empty key that the command
requires.  Exit codes: 1 usage, 2 configuration, 3 data (missing or
malformed files), 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    CompilerError,
    ConfigError,
    FireflynetError,
    FormatError,
    ParameterError,
    PatternAnnihilatedError,
    ShapeMismatchError,
)
from .patterns import Pattern, load_image, read_text, save_image, save_pattern_csv, write_table
from .trainer import (
    CONFIG_KEY_HELP,
    CONFIG_KEYS,
    EXPERIMENT_NAMES,
    TrainerConfig,
    config_from_dict,
    config_to_dict,
    format_kv,
    init_model,
    load_model,
    parse_kv_text,
    recall,
    run_experiment,
    save_model,
    train,
)

_EVERY_COMMAND = ("train", "recall", "experiment", "sweep")


class RunKey(NamedTuple):
    help: str
    flag: str | None  # the flag that also sets the key, and overrides it
    read_by: tuple[str, ...]  # a command refuses any other run key
    required_by: tuple[str, ...] = ()


# The keys that say how to run a command rather than what model to build;
# a command checks the keys it requires in this order.
RUN_KEYS: dict[str, RunKey] = {
    "experiment": RunKey(f"experiment name: {', '.join(EXPERIMENT_NAMES)}", None,
                         ("experiment", "sweep"), ("experiment", "sweep")),
    "seeds": RunKey("comma list of run seeds, e.g. 0,1,2", None, ("experiment", "sweep")),
    "seed_count": RunKey("shorthand for seeds = 0..seed_count-1", None, ("experiment", "sweep")),
    "jobs": RunKey("parallel workers for sweep", "--jobs", ("sweep",)),
    "patterns_dir": RunKey("directory of .csv/.pgm training patterns", "--patterns", ("train",), ("train",)),
    "model_dir": RunKey("saved model directory", "--model", ("recall",), ("recall",)),
    "cue": RunKey("cue pattern file", "--cue", ("recall",), ("recall",)),
    "out": RunKey("output directory", "--out", _EVERY_COMMAND, _EVERY_COMMAND),
}

# Model keys that a sweep may vary: not the grid sides, and not
# master_seed, since a sweep's seed axis is its seed list.
SWEEPABLE = tuple(spec.key for spec in CONFIG_KEYS if spec.field != "grid" and spec.key != "master_seed")


class UsageError(FireflynetError):
    """Bad command line (not config-file contents)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2)
        raise UsageError(message)


def _key_listing() -> str:
    lines = ["model config keys:"]
    for key, text in CONFIG_KEY_HELP.items():
        lines.append(f"  {key:<22} {text}")
    lines.append("run config keys:")
    for key, row in RUN_KEYS.items():
        lines.append(f"  {key:<22} {row.help}" + (f" ({row.flag} overrides)" if row.flag else ""))
    lines.append("sweep config keys:")
    lines.append("  sweep.<key> = v1,v2   grid over any sweepable model key")
    return "\n".join(lines)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="fireflynet",
        description="Associative memory with competitive weight dynamics and swarm topology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = dict(formatter_class=argparse.RawDescriptionHelpFormatter, epilog=_key_listing())
    for command, (_, text) in _COMMANDS.items():
        p = sub.add_parser(command, help=text, **common)
        if command == "experiment":
            p.add_argument("experiment", nargs="?", metavar="name", help=RUN_KEYS["experiment"].help)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, help="override master_seed")
        for key, row in RUN_KEYS.items():
            if row.flag:
                p.add_argument(row.flag, dest=key, help=f"{row.help} (sets {key})")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )
    return parser


def _load_run_config(args: argparse.Namespace) -> dict[str, str]:
    kv: dict[str, str] = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise FormatError(f"config file not found: {path}")
        kv = parse_kv_text(read_text(path))
    for item in args.set:
        if "=" not in item:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        kv[key.strip()] = value.strip()
    if args.seed is not None:
        kv["master_seed"] = str(args.seed)
    for key in RUN_KEYS:
        if getattr(args, key, None) is not None:
            kv[key] = getattr(args, key)
    return kv


def _split_keys(kv: dict[str, str], command: str) -> tuple[dict[str, str], dict[str, str], dict[str, list[str]]]:
    model_kv, run_kv, sweep_kv = {}, {}, {}
    for key, value in kv.items():
        base = key.removeprefix("sweep.")
        if key in CONFIG_KEY_HELP:
            model_kv[key] = value
        elif key in RUN_KEYS:
            run_kv[key] = value
        elif not key.startswith("sweep."):
            raise ConfigError(f"unknown config key {key!r}")
        elif base in SWEEPABLE:
            sweep_kv[base] = [v.strip() for v in value.split(",") if v.strip()]
        else:
            hint = "; give the run seeds with seeds or seed_count" if base == "master_seed" else ""
            raise ConfigError(f"cannot sweep key {base!r}{hint}")
    if sweep_kv and command != "sweep":
        raise ConfigError("sweep keys are only valid for the sweep command")
    unread = sorted(key for key in run_kv if command not in RUN_KEYS[key].read_by)
    if unread:
        raise ConfigError(f"{command} does not read the run keys: {', '.join(unread)}")
    for key, row in RUN_KEYS.items():
        if command in row.required_by and not run_kv.get(key):
            raise ConfigError(f"{command} requires the {key} key" + (f" or {row.flag}" if row.flag else ""))
    return model_kv, run_kv, sweep_kv


def _run_seeds(run_kv: dict[str, str], config: TrainerConfig) -> list[int]:
    if "seeds" in run_kv and "seed_count" in run_kv:
        raise ConfigError("give the run seeds with seeds or seed_count, not both")
    if "seeds" in run_kv:
        try:
            seeds = [int(tok) for tok in run_kv["seeds"].split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"seeds: expected comma list of ints, got {run_kv['seeds']!r}") from exc
        if not seeds:
            raise ConfigError("seeds: empty list")
        if min(seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {min(seeds)}")
        return seeds
    if "seed_count" in run_kv:
        try:
            count = int(run_kv["seed_count"])
        except ValueError as exc:
            raise ConfigError(f"seed_count: expected int, got {run_kv['seed_count']!r}") from exc
        if count < 1:
            raise ConfigError(f"seed_count must be >= 1, got {count}")
        return list(range(count))
    return [config.master_seed]


def _cmd_train(model_kv: dict[str, str], run_kv: dict[str, str], _) -> int:
    out = Path(run_kv["out"])
    config = config_from_dict(model_kv)

    pattern_dir = Path(run_kv["patterns_dir"])
    if not pattern_dir.is_dir():
        raise FormatError(f"pattern directory not found: {pattern_dir}")
    files = sorted(p for p in pattern_dir.iterdir() if p.suffix.lower() in (".csv", ".pgm"))
    if not files:
        raise FormatError(f"no .csv or .pgm patterns in {pattern_dir}")
    patterns = []
    labelled: dict[str, Path] = {}
    for f in files:
        try:
            f.stem.encode()  # the stem becomes a template label and a saved file name
        except UnicodeEncodeError:
            raise FormatError(f"pattern file name is not UTF-8: {str(f)!r}") from None
        if f.stem in labelled:  # a model keeps one template per label
            raise FormatError(f"pattern files {labelled[f.stem]} and {f} share the label {f.stem!r}")
        labelled[f.stem] = f
        loaded = load_image(f)
        patterns.append(Pattern(loaded.values, grid=loaded.grid, label=f.stem))

    model = train(init_model(config), patterns)
    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out)
    rows = [(k, rep.steps, int(rep.converged), rep.final_max_rhs) for k, rep in enumerate(model.history)]
    write_table(out / "training_summary.csv", ("presentation", "steps", "converged", "final_max_rhs"), rows)
    model.history[-1].save_trace_csv(out / "trace_final.csv")
    _regime_warning(model)
    n_converged = sum(r.converged for r in model.history)
    print(f"trained on {len(patterns)} patterns; {n_converged}/{len(model.history)} presentations converged")
    print(f"model saved to {out}")
    return 0


def _regime_warning(model) -> None:
    """Warn when W's spectral radius is at least 1: the series I + W + W^2 + ...
    then diverges, and its three-hop truncation approximates no equilibrium."""
    rho = float(np.abs(np.linalg.eigvals(model.weights.w)).max())
    if rho >= 1.0:
        print(f"warning: spectral radius of W is {rho:.3f} >= 1; the three-hop response approximates no equilibrium",
              file=sys.stderr)


def _cmd_recall(model_kv: dict[str, str], run_kv: dict[str, str], _) -> int:
    if model_kv:
        keys = ", ".join(sorted(model_kv))
        raise ConfigError(f"recall takes no model keys, the saved model fixes them: {keys}")
    out = Path(run_kv["out"])

    model_dir = Path(run_kv["model_dir"])
    if not model_dir.is_dir():
        raise FormatError(f"model directory not found: {model_dir}")
    model = load_model(model_dir)
    cue = load_image(run_kv["cue"])

    output, metrics = recall(model, cue)
    out.mkdir(parents=True, exist_ok=True)
    save_pattern_csv(output, out / "pattern_output.csv")
    save_image(output, out / "pattern_output.pgm")
    report = format_kv({"cosine": metrics.cosine, "mse": metrics.mse, "pearson": metrics.pearson,
                        "best_match_label": metrics.best_match_label or ""})
    (out / "report.txt").write_text(report)
    _regime_warning(model)
    print(report, end="")
    return 0


def _cmd_experiment(model_kv: dict[str, str], run_kv: dict[str, str], _) -> int:
    out = Path(run_kv["out"])
    config = config_from_dict(model_kv)
    seeds = _run_seeds(run_kv, config)

    report = run_experiment(config, run_kv["experiment"], out_dir=out, seeds=seeds)
    (out / "config_echo.cfg").write_text(format_kv(config_to_dict(config)))
    print(report.to_text(), end="")
    return 0


def _sweep_worker(task: tuple[int, dict[str, str], str, str, int]) -> tuple[int, dict[str, float]]:
    index, model_kv, experiment, run_dir, seed = task
    config = config_from_dict(model_kv)
    report = run_experiment(config, experiment, out_dir=run_dir, seeds=[seed])
    return index, report.metrics


def _cmd_sweep(model_kv: dict[str, str], run_kv: dict[str, str], sweep_kv: dict[str, list[str]]) -> int:
    out = Path(run_kv["out"])
    try:
        jobs = int(run_kv.get("jobs", "1"))
    except ValueError as exc:
        raise ConfigError(f"jobs: expected int, got {run_kv['jobs']!r}") from exc
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")

    param_names = sorted(sweep_kv)
    combos = list(product(*(sweep_kv[name] for name in param_names)))
    if not combos:
        raise ConfigError("sweep: every sweep.<key> needs at least one value")
    # validate the key set once, before any worker starts
    first = config_from_dict({**model_kv, **dict(zip(param_names, combos[0]))})
    seeds = _run_seeds(run_kv, first)

    tasks = []
    for combo in combos:
        for seed in seeds:
            overrides = dict(model_kv)
            overrides.update(zip(param_names, combo))
            overrides["master_seed"] = str(seed)
            index = len(tasks)
            run_dir = out / f"run_{index:03d}"
            tasks.append((index, overrides, run_kv["experiment"], str(run_dir), seed))

    # one job runs in process; a pool forks all its workers at the first
    # submit, so it never asks for more than there are tasks
    with nullcontext() if jobs == 1 else ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        results = dict((pool.map if pool else map)(_sweep_worker, tasks))

    metric_names = sorted({name for m in results.values() for name in m})
    rows = [
        [index, *(overrides[name] for name in param_names), seed]
        + [results[index].get(name, "") for name in metric_names]
        for index, (_, overrides, _, _, seed) in enumerate(tasks)
    ]
    out.mkdir(parents=True, exist_ok=True)
    write_table(out / "sweep.csv", ["run", *param_names, "seed", *metric_names], rows)
    print(f"{len(tasks)} runs -> {out / 'sweep.csv'}")
    return 0


_COMMANDS = {
    "train": (_cmd_train, "train a model on a directory of patterns"),
    "recall": (_cmd_recall, "recall from a cue using a saved model"),
    "experiment": (_cmd_experiment, "run a named experiment"),
    "sweep": (_cmd_sweep, "cross-product parameter sweep of an experiment"),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](*_split_keys(_load_run_config(args), args.command))
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, ShapeMismatchError, PatternAnnihilatedError, ParameterError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except CompilerError as exc:  # the host lacks a tool; nothing internal failed
        print(exc, file=sys.stderr)
        return 4
    except FireflynetError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
