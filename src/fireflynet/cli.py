"""Command-line front end: train, recall, experiment, sweep.

Configuration is a flat ``key = value`` file (# comments allowed); every
key can also be set or overridden on the command line with repeated
``--set key=value`` flags.  Unknown keys are hard errors, and so are a
model key given to recall, whose saved model fixes them, and a run key
that the command does not read.  Exit codes:
1 usage, 2 configuration, 3 data (missing or malformed files), 4
internal invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from pathlib import Path

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

RUN_KEY_HELP: dict[str, str] = {
    "experiment": f"experiment name: {', '.join(EXPERIMENT_NAMES)}",
    "seeds": "comma list of run seeds, e.g. 0,1,2",
    "seed_count": "shorthand for seeds = 0..seed_count-1",
    "out": "output directory (--out overrides)",
    "jobs": "parallel workers for sweep (--jobs overrides)",
    "patterns_dir": "directory of training patterns for train (--patterns overrides)",
    "model_dir": "saved model directory for recall (--model overrides)",
    "cue": "cue pattern file for recall (--cue overrides)",
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
    for key, text in RUN_KEY_HELP.items():
        lines.append(f"  {key:<22} {text}")
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

    p_train = sub.add_parser("train", help="train a model on a directory of patterns", **common)
    p_train.add_argument("--patterns", help="directory of .csv/.pgm training patterns")

    p_recall = sub.add_parser("recall", help="recall from a cue using a saved model", **common)
    p_recall.add_argument("--model", help="saved model directory")
    p_recall.add_argument("--cue", help="cue pattern file")

    p_exp = sub.add_parser("experiment", help="run a named experiment", **common)
    p_exp.add_argument("name", nargs="?", help=f"one of: {', '.join(EXPERIMENT_NAMES)}")

    sub.add_parser("sweep", help="cross-product parameter sweep of an experiment", **common)

    for p in (p_train, p_recall, p_exp, sub.choices["sweep"]):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override master_seed")
        p.add_argument("--jobs", type=int, help="parallel workers (sweep only)")
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
    _check_keys(kv)
    if args.seed is not None:
        kv["master_seed"] = str(args.seed)
    if args.out:
        kv["out"] = args.out
    if args.jobs is not None:
        kv["jobs"] = str(args.jobs)
    return kv


def _check_keys(kv: dict[str, str]) -> None:
    for key in kv:
        if key in CONFIG_KEY_HELP or key in RUN_KEY_HELP:
            continue
        if key.startswith("sweep."):
            base = key[len("sweep.") :]
            if base in SWEEPABLE:
                continue
            hint = "; give the run seeds with seeds or seed_count" if base == "master_seed" else ""
            raise ConfigError(f"cannot sweep key {base!r}{hint}")
        raise ConfigError(f"unknown config key {key!r}")


# The run keys each command reads; any other run key could change nothing.
_RUN_KEYS_READ = {
    "train": {"out", "patterns_dir"},
    "recall": {"out", "model_dir", "cue"},
    "experiment": {"out", "experiment", "seeds", "seed_count"},
    "sweep": {"out", "experiment", "seeds", "seed_count", "jobs"},
}


def _split_run_keys(kv: dict[str, str], command: str) -> tuple[dict[str, str], dict[str, str], dict[str, list[str]]]:
    model_kv, run_kv, sweep_kv = {}, {}, {}
    for key, value in kv.items():
        if key.startswith("sweep."):
            sweep_kv[key[len("sweep.") :]] = [v.strip() for v in value.split(",") if v.strip()]
        elif key in RUN_KEY_HELP:
            run_kv[key] = value
        else:
            model_kv[key] = value
    if sweep_kv and command != "sweep":
        raise ConfigError("sweep keys are only valid for the sweep command")
    unread = sorted(run_kv.keys() - _RUN_KEYS_READ[command])
    if unread:
        raise ConfigError(f"{command} does not read the run keys: {', '.join(unread)}")
    return model_kv, run_kv, sweep_kv


def _run_seeds(run_kv: dict[str, str], config: TrainerConfig) -> list[int]:
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


def _require_out(run_kv: dict[str, str]) -> Path:
    if "out" not in run_kv:
        raise ConfigError("an output directory is required (--out or the out key)")
    return Path(run_kv["out"])


def _cmd_train(args: argparse.Namespace) -> int:
    kv = _load_run_config(args)
    if args.patterns:
        kv["patterns_dir"] = args.patterns
    model_kv, run_kv, _ = _split_run_keys(kv, "train")
    if "patterns_dir" not in run_kv:
        raise ConfigError("train requires a pattern directory (--patterns or patterns_dir)")
    out = _require_out(run_kv)
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
    if model.history:
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


def _cmd_recall(args: argparse.Namespace) -> int:
    kv = _load_run_config(args)
    if args.model:
        kv["model_dir"] = args.model
    if args.cue:
        kv["cue"] = args.cue
    model_kv, run_kv, _ = _split_run_keys(kv, "recall")
    if model_kv:
        keys = ", ".join(sorted(model_kv))
        raise ConfigError(f"recall takes no model keys, the saved model fixes them: {keys}")
    for required in ("model_dir", "cue"):
        if required not in run_kv:
            raise ConfigError(f"recall requires {required}")
    out = _require_out(run_kv)

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


def _cmd_experiment(args: argparse.Namespace) -> int:
    kv = _load_run_config(args)
    if getattr(args, "name", None):
        kv["experiment"] = args.name
    model_kv, run_kv, _ = _split_run_keys(kv, "experiment")
    if "experiment" not in run_kv:
        raise ConfigError("experiment requires a name (positional or the experiment key)")
    out = _require_out(run_kv)
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


def _cmd_sweep(args: argparse.Namespace) -> int:
    kv = _load_run_config(args)
    model_kv, run_kv, sweep_kv = _split_run_keys(kv, "sweep")
    if "experiment" not in run_kv:
        raise ConfigError("sweep requires the experiment key")
    out = _require_out(run_kv)
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

    results: dict[int, dict[str, float]] = {}
    if jobs == 1:
        for task in tasks:
            index, metrics = _sweep_worker(task)
            results[index] = metrics
    else:
        # the pool forks all its workers at the first submit, so never ask
        # for more than there are tasks
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            for index, metrics in pool.map(_sweep_worker, tasks):
                results[index] = metrics

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
    "train": _cmd_train,
    "recall": _cmd_recall,
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
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
