"""Training lifecycle: wire the swarm, the linear response, and the
weight dynamics into a model that stores and recalls activity patterns.

A model keeps one signed weight matrix.  Its positive part is what the
competitive rule evolves (bounded by the saturation ceiling); the
negative part, when present, is long-range inhibition read off the
firefly swarm at each presentation.  Recall pushes a cue through the
truncated resolvent of the full signed matrix, clamps at zero, and
renormalizes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence
from urllib.parse import quote, unquote

import numpy as np

from .dynamics import (
    WeightMatrix,
    correlation_tensor,
    load_matrix_csv,
    save_matrix_csv,
    save_matrix_pgm,
)
from .errors import (
    ConfigError,
    FormatError,
    InvariantError,
    ParameterError,
    ShapeMismatchError,
    require_integer,
)
from .firefly import (
    FireflyPopulation,
    GridLayout,
    SwarmParams,
    load_population_csv,
    save_population_csv,
    swarm_step,
    synthesize_weights,
)
from .patterns import (
    Pattern,
    _mask,
    _unit,
    active_set,
    add_noise,
    cosine,
    format_cell,
    fuse,
    gaussian_2d,
    load_pattern_csv,
    mask,
    read_text,
    relative_threshold,
    save_image,
    save_pattern_csv,
    write_table,
)
from .plasticity import EvolveReport, PlasticityParams, evolve_weights, row_fixed_points

# Experiment scenario constants.
NOISE_LEVEL = 0.2
MASK_FRACTION = 0.3
TEMPLATE_SIGMA = 1.0
FUSED_GAP_TARGET = 0.15
RING_NEIGHBORS = 3  # evolve1d's ring: neighbours per side, each at 1 / (2 k)

# Model constants.
ACTIVE_FRACTION = 0.1  # active-set threshold, a fraction of the presented pattern's peak
TOPOLOGY_MIX = 0.3  # pull of the swarm prior on the excitatory weights at each presentation
INIT_SIGMA_CELLS = 1.5  # width of the random-init distance kernel, in cells

# Seed-stream tags, so every random draw hangs off one master seed.
_STREAM_WEIGHTS = 0
_STREAM_POPULATION = 1
_STREAM_PATTERN = 2
_STREAM_NOISE = 3
_STREAM_MASK = 4


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def _int_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([int(seed), *map(int, tags)]).generate_state(1)[0])


@dataclass(frozen=True)
class TrainerConfig:
    """Everything a run can set; with the module constants, one instance
    fully determines a model."""

    n: int
    grid: tuple[int, int] | None = None
    use_firefly: bool = False
    plasticity: PlasticityParams = field(default_factory=PlasticityParams)
    swarm: SwarmParams = field(default_factory=SwarmParams)
    pattern_count: int = 1
    master_seed: int = 0
    epochs: int = 5

    def __post_init__(self) -> None:
        for name in ("n", "pattern_count", "master_seed", "epochs"):
            require_integer(name, getattr(self, name))
        if self.n < 2:
            raise ParameterError(f"network size must be >= 2, got {self.n}")
        if self.layout().n != self.n:  # GridLayout rejects sides below 1
            raise ShapeMismatchError(f"grid {self.grid} does not match n={self.n}")
        if self.pattern_count < 1:
            raise ParameterError(f"pattern_count must be >= 1, got {self.pattern_count}")
        if self.master_seed < 0:
            raise ParameterError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.epochs < 1:
            raise ParameterError(f"epochs must be >= 1, got {self.epochs}")

    def layout(self) -> GridLayout:
        rows, cols = self.grid if self.grid is not None else (1, self.n)
        return GridLayout(rows, cols)


@dataclass
class RecallMetrics:
    """Similarity of a recall output to a reference pattern.

    mse and pearson are numpy's, worked out when read from private copies of
    the output and the unit-scaled reference; pearson is 0.0 if either is constant.
    best_match_label is the stored template with the highest cosine to
    the output (None when the model has no labeled templates).
    low_confidence marks completions whose cue lost the entire active
    set; the output is still returned.
    """

    cosine: float
    best_match_label: str | None = None
    low_confidence: bool = False
    _output: np.ndarray = field(kw_only=True, repr=False, compare=False)
    _reference: np.ndarray = field(kw_only=True, repr=False, compare=False)

    @property
    def mse(self) -> float:
        return float(np.mean((self._output - self._reference) ** 2))

    @property
    def pearson(self) -> float:
        if float(self._output.std()) <= 0.0 or float(self._reference.std()) <= 0.0:
            return 0.0
        return float(np.corrcoef(self._output, self._reference)[0, 1])


@dataclass
class Model:
    """Aggregate state of one simulation."""

    weights: WeightMatrix
    population: FireflyPopulation | None
    config: TrainerConfig
    history: list[EvolveReport] = field(default_factory=list)
    templates: list[Pattern] = field(default_factory=list)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def _row_normalize_capped(w: np.ndarray, v: float) -> np.ndarray:
    """Scale each non-negative row to sum 1 without any entry exceeding v.

    Excess above the cap is redistributed to uncapped entries; if the cap
    makes a unit row sum infeasible the row saturates at v everywhere.
    Every row with a positive sum is scaled at once; only those left with
    an entry above v take the redistribution loop.
    """
    out = w.copy()
    totals = out.sum(axis=1, keepdims=True)  # each row's own pairwise sum, as row.sum()
    np.divide(out, totals, out=out, where=totals > 0.0)
    for i in np.flatnonzero((out > v).any(axis=1)):
        row = out[i]
        for _ in range(out.shape[1]):
            over = row > v
            if not over.any():
                break
            excess = float((row[over] - v).sum())
            row[over] = v
            free = ~over & (row > 0.0)
            if not free.any():
                break
            row[free] += excess * row[free] / float(row[free].sum())
    # redistribution rounding can leave entries a few ulp above the cap
    return np.clip(out, 0.0, v)


def init_model(config: TrainerConfig) -> Model:
    """Seeded model: distance-decaying random weights plus a fresh swarm
    population of n agents when the config asks for one."""
    n = config.n
    rng = _rng(config.master_seed, _STREAM_WEIGHTS)
    kernel = np.exp(-config.layout().cell_distance_sq() / (2.0 * INIT_SIGMA_CELLS * INIT_SIGMA_CELLS))
    w = kernel * rng.random((n, n))
    np.fill_diagonal(w, 0.0)
    w = _row_normalize_capped(w, config.plasticity.v)

    population = None
    if config.use_firefly:
        population = FireflyPopulation.spawn(n, config.swarm, rng=_rng(config.master_seed, _STREAM_POPULATION))
    return Model(weights=WeightMatrix(w), population=population, config=config)


# ---------------------------------------------------------------------------
# presentation and recall
# ---------------------------------------------------------------------------

def present_pattern(model: Model, p: Pattern) -> Model:
    """One presentation: optional swarm pass, then each weight row's fixed
    point, solved for (``row_fixed_points``) and polished by Euler to quiescence.

    Mutates and returns the model.  Labeled patterns are remembered once
    as stored templates for later best-match scoring.
    """
    cfg = model.config
    if p.n != cfg.n:
        raise ShapeMismatchError(f"pattern length {p.n} does not match network size {cfg.n}")
    layout = cfg.layout()

    excitatory = model.weights.positive_part()
    inhibitory = model.weights.negative_part()

    if cfg.use_firefly:
        if model.population is None:
            raise InvariantError("configured for firefly but the model has no population")
        for _ in range(cfg.swarm.steps):
            swarm_step(model.population, p, layout)
        prior = synthesize_weights(model.population, layout, cfg.plasticity.v)
        # Swarm-declared inhibitory surround suppresses learned excitation
        # there; elsewhere the prior pulls excitation toward its layout.
        excitatory[prior.w < 0.0] = 0.0
        excitatory = (1.0 - TOPOLOGY_MIX) * excitatory + TOPOLOGY_MIX * prior.positive_part()
        inhibitory = prior.negative_part()

    if p.label is not None and all(t.label != p.label for t in model.templates):
        model.templates.append(p)

    # every array below is built from checked weights: wrapped, not re-checked
    d = WeightMatrix._wrap(excitatory + inhibitory).resolvent
    tensor = correlation_tensor(d, active_set(p, relative_threshold(p, ACTIVE_FRACTION)))

    start = row_fixed_points(WeightMatrix._wrap(excitatory), tensor, cfg.plasticity)
    evolved, report = evolve_weights(start, tensor, cfg.plasticity)
    model.weights = WeightMatrix._wrap(evolved.w + inhibitory)
    model.history.append(report)
    return model


def train(model: Model, patterns: Sequence[Pattern]) -> Model:
    """Present every pattern once per epoch, in order."""
    if not patterns:
        raise ParameterError("training requires at least one pattern")
    for _ in range(model.config.epochs):
        for p in patterns:
            present_pattern(model, p)
    return model


def _similarity(output: Pattern, reference: Pattern, templates: Sequence[Pattern]) -> RecallMetrics:
    """Score an output against the unit-scaled reference and the templates, its norm taken once."""
    ref, norm = _unit(reference.values), math.sqrt(float(np.dot(output.values, output.values)))
    cos = cosine(output, ref, na=norm)
    scored = [(cosine(output, t, na=norm), t.label) for t in templates if t.label is not None]
    best = max(scored, key=lambda s: s[0])[1] if scored else None
    return RecallMetrics(cosine=cos, best_match_label=best, _output=output.values.copy(), _reference=ref)


def recall(
    model: Model, cue: Pattern, reference: Pattern | None = None
) -> tuple[Pattern, RecallMetrics]:
    """Linear response to a cue: D @ cue, clamped at zero, renormalized.

    The response is read through the weights' memoised resolvent, so D
    is built once per weight state, not once per cue.  The metrics score
    the output against ``reference``, or against the cue itself when it
    is None.  A response wiped out by inhibition comes back as the zero
    pattern with cosine 0 rather than an error.
    """
    cfg = model.config
    if cue.n != cfg.n:
        raise ShapeMismatchError(f"cue length {cue.n} does not match network size {cfg.n}")
    if float(cue.values.max()) <= 0.0:
        raise ParameterError("zero cue: nothing to recall")
    out = np.maximum(model.weights.resolvent @ cue.values, 0.0)
    norm = math.sqrt(float(np.dot(out, out)))
    out = np.zeros_like(out) if norm <= 1e-12 else out / norm
    # a finite norm means finite entries, >= 0 by the clamp; else the check names the fault
    output = Pattern._wrap(out, cue.grid, None) if math.isfinite(norm) else Pattern(out, grid=cue.grid)
    return output, _similarity(output, cue if reference is None else reference, model.templates)


def complete(
    model: Model, partial: Pattern, masked_indices: Iterable[int]
) -> tuple[Pattern, RecallMetrics]:
    """Recall from a masked cue; metrics are scored against the original.

    If the mask wipes the whole active set the result is flagged
    low-confidence instead of raising.
    """
    cue, masked = _mask(partial, masked_indices)
    output, metrics = recall(model, cue, partial)
    active = active_set(partial, relative_threshold(partial, ACTIVE_FRACTION))
    metrics.low_confidence = bool(masked) and masked.issuperset(active.tolist())
    return output, metrics


# ---------------------------------------------------------------------------
# config <-> flat key/value dict (also the model checkpoint format)
# ---------------------------------------------------------------------------

_TRUE = ("true", "1", "yes", "on")
_FALSE = ("false", "0", "no", "off")


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_num(key: str, raw: str, kind: Callable) -> float | int:
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}") from exc


def parse_kv_text(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` starts a comment; blanks ignored."""
    out: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def format_kv(kv: dict[str, object]) -> str:
    """``key = value`` lines, values by ``format_cell``."""
    return "\n".join(f"{k} = {format_cell(v)}" for k, v in kv.items()) + "\n"


@dataclass(frozen=True)
class ConfigKey:
    """One flat config key: the dataclass field it sets and its help text.

    The field's default decides how the key is parsed and echoed (bool,
    int or float); a field without a default, or with None, is an int.
    The grid sides rows and cols both set ``grid``, in that order.  A
    field left at None is not echoed.
    """

    key: str
    owner: type
    help: str
    attr: str = ""  # the owner's field, when its name is not the key

    @property
    def field(self) -> str:
        return self.attr or self.key

    @property
    def kind(self) -> type:
        default = getattr(self.owner, self.field, None)
        return int if default is None else type(default)

    def parse(self, raw: str) -> bool | int | float:
        if self.kind is bool:
            return _parse_bool(self.key, raw)
        value = _parse_num(self.key, raw, self.kind)
        if self.kind is float and not math.isfinite(value):
            raise ConfigError(f"{self.key}: expected a finite number, got {raw!r}")
        return value

    def format(self, value: bool | int | float) -> str:
        if self.kind is bool:
            return str(value).lower()
        return repr(value) if self.kind is float else str(value)


CONFIG_KEYS: tuple[ConfigKey, ...] = (
    ConfigKey("n", TrainerConfig, "network size (number of cells)"),
    ConfigKey("rows", TrainerConfig, "grid rows (with cols; omit both for a 1D line)", "grid"),
    ConfigKey("cols", TrainerConfig, "grid columns", "grid"),
    ConfigKey("use_firefly", TrainerConfig, "synthesize topology with the swarm before each presentation"),
    ConfigKey("pattern_count", TrainerConfig, "number of stored templates the scenario generates"),
    ConfigKey("master_seed", TrainerConfig, "root of the run's seed hierarchy"),
    ConfigKey("epochs", TrainerConfig, "training passes over the pattern list"),
    ConfigKey("alpha", PlasticityParams, "uniform-decay rate of the weight rule"),
    ConfigKey("beta", PlasticityParams, "competition gain of the weight rule"),
    ConfigKey("v", PlasticityParams, "saturation ceiling on excitatory weights"),
    ConfigKey("max_steps", PlasticityParams, "cap on Euler steps per presentation, which stops at quiescence"),
    ConfigKey("tol", PlasticityParams, "quiescence tolerance on weight change"),
    ConfigKey("swarm_b", SwarmParams, "attraction amplitude", "b"),
    ConfigKey("swarm_gamma", SwarmParams, "attraction falloff with squared distance", "gamma"),
    ConfigKey("swarm_eta", SwarmParams, "jitter amplitude of swarm moves", "eta"),
    ConfigKey("swarm_d_min", SwarmParams, "minimum agent spacing", "d_min"),
    ConfigKey("swarm_steps", SwarmParams, "swarm updates per presentation", "steps"),
)

CONFIG_KEY_HELP: dict[str, str] = {spec.key: spec.help for spec in CONFIG_KEYS}


def config_to_dict(config: TrainerConfig) -> dict[str, str]:
    """Full echo of a config as flat strings, in the table's key order."""
    owners = {TrainerConfig: config, PlasticityParams: config.plasticity, SwarmParams: config.swarm}
    kv: dict[str, str] = {}
    sides = 0
    for spec in CONFIG_KEYS:
        value = getattr(owners[spec.owner], spec.field)
        if spec.field == "grid" and value is not None:
            value = value[sides]
            sides += 1
        if value is not None:
            kv[spec.key] = spec.format(value)
    return kv


def config_from_dict(kv: dict[str, str]) -> TrainerConfig:
    """Build a config from flat strings, rejecting unknown keys."""
    unknown = sorted(set(kv) - set(CONFIG_KEY_HELP))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kwargs: dict[type, dict[str, object]] = {TrainerConfig: {}, PlasticityParams: {}, SwarmParams: {}}
    sides = []
    for spec in CONFIG_KEYS:
        if spec.key not in kv:
            continue
        value = spec.parse(kv[spec.key])
        if spec.field == "grid":
            sides.append(value)
        else:
            kwargs[spec.owner][spec.field] = value
    top = kwargs[TrainerConfig]
    if "n" not in top:
        raise ConfigError("config requires n")
    if len(sides) == 1:
        raise ConfigError("rows and cols must be given together")
    try:
        return TrainerConfig(
            grid=tuple(sides) if sides else None,
            plasticity=PlasticityParams(**kwargs[PlasticityParams]),
            swarm=SwarmParams(**kwargs[SwarmParams]),
            **top,
        )
    except (ParameterError, ShapeMismatchError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------

def _file_label(label: str) -> str:
    """Label as a file-name fragment: letters, digits and ``_.-~`` stay
    as they are, every other character is percent-encoded, so unquote()
    gives the label back."""
    return quote(label, safe="")


def save_model(model: Model, out_dir: str | Path) -> None:
    """Write weights, config echo, templates, and the swarm snapshot."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix_csv(model.weights.w, out / "w_matrix.csv")
    (out / "config.cfg").write_text(format_kv(config_to_dict(model.config)))
    if model.population is not None:
        save_population_csv(model.population, out / "population.csv")
    if model.templates:
        tdir = out / "templates"
        tdir.mkdir(exist_ok=True)
        for k, t in enumerate(model.templates):
            name = f"t{k}.csv" if t.label is None else f"t{k}_{_file_label(t.label)}.csv"
            save_pattern_csv(t, tdir / name)


# Removed keys that every config.cfg saved while they existed echoes, with
# the one value such a model can still be loaded at.
_RETIRED_KEYS = {
    "learn_schedule": "onset",
    "recall_iterations": "1",
    "reset_per_pattern": "false",
    "boundary": "open",
    "theta_act": "0.1",
    "topology_mix": "0.3",
    "init_sigma_cells": "1.5",
    "excit_fraction": "0.7",
    "population_factor": "1.0",
    "kernel_pitches": "1.5",
    "inhib_pitches": "3.0",
    "inhibition_gain": "1.0",
}


def load_model(model_dir: str | Path) -> Model:
    """Rebuild a saved model.

    Generator state is not restored: the population continues from a
    seed derived from the config, which is enough for recall and for
    continuing to train deterministically from the checkpoint files.
    A retired key's line is dropped when it holds the behaviour that
    stayed, and is a ConfigError otherwise.
    """
    root = Path(model_dir)
    kv = parse_kv_text(read_text(root / "config.cfg"))
    for key, kept in _RETIRED_KEYS.items():
        if key in kv and kv.pop(key) != kept:
            raise ConfigError(f"{key} was removed; a saved model can only hold {key} = {kept}")
    config = config_from_dict(kv)
    w = load_matrix_csv(root / "w_matrix.csv")
    if w.shape[0] != config.n:
        raise ShapeMismatchError(
            f"weights are {w.shape[0]}x{w.shape[0]} but config says n={config.n}"
        )
    population = None
    pop_file = root / "population.csv"
    if pop_file.exists():
        population = load_population_csv(
            pop_file, config.swarm, rng=_rng(config.master_seed, _STREAM_POPULATION)
        )
    model = Model(weights=WeightMatrix(w), population=population, config=config)
    tdir = root / "templates"
    if tdir.is_dir():
        stored = []
        for f in tdir.glob("t*.csv"):
            name = re.fullmatch(r"t(\d+)(?:_(.*))?", f.stem)
            if name is None:
                raise FormatError(f"template file name is not t<index>[_<label>].csv: {f}")
            label = None if name[2] is None else unquote(name[2])
            stored.append((int(name[1]), f, label))
        for _, f, label in sorted(stored):
            p = load_pattern_csv(f)
            if p.n != config.n:
                raise FormatError(f"template {f} has {p.n} values but config says n={config.n}")
            model.templates.append(Pattern(p.values, grid=p.grid, label=label))
    return model


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass
class ExperimentReport:
    """Summary scalars plus the per-run table an experiment produced."""

    name: str
    metrics: dict[str, float] = field(default_factory=dict)
    rows: list[dict[str, object]] = field(default_factory=list)

    def to_text(self) -> str:
        return format_kv({"experiment": self.name, **self.metrics})

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(self.to_text())
        if self.rows:
            header = list(self.rows[0])
            rows = ([row.get(key, "") for key in header] for row in self.rows)
            write_table(out / "metrics.csv", header, rows)


# Where one seed's run writes its artifacts: emit(name, writer) calls
# writer(out / name) for the first seed of a run with an output directory,
# and does nothing otherwise.
Emit = Callable[[str, Callable[[Path], None]], None]


def _emit_pattern(emit: Emit, stem: str, pattern: Pattern) -> None:
    """A pattern artifact as a .csv and .pgm pair."""
    for suffix in (".csv", ".pgm"):
        emit(stem + suffix, lambda path: save_image(pattern, path))


def _converged_fraction(reports: Sequence[EvolveReport]) -> float:
    """Share of the evolutions that reached quiescence within max_steps."""
    return sum(r.converged for r in reports) / len(reports)


def _scenario_grid(config: TrainerConfig) -> tuple[int, int]:
    if config.grid is not None:
        return config.grid
    side = int(round(math.sqrt(config.n)))
    if side * side != config.n:
        raise ParameterError(f"2D experiment needs a grid; n={config.n} is not square")
    return (side, side)


def _random_bump(config: TrainerConfig, rng: np.random.Generator, label: str | None = None) -> Pattern:
    rows, cols = _scenario_grid(config)
    cy = rng.uniform(1.0, rows - 2.0) if rows > 3 else rows / 2.0
    cx = rng.uniform(1.0, cols - 2.0) if cols > 3 else cols / 2.0
    return gaussian_2d(rows, cols, cx, cy, TEMPLATE_SIGMA, TEMPLATE_SIGMA, label=label)


def _distinct_bumps(config: TrainerConfig, rng: np.random.Generator, count: int) -> list[Pattern]:
    """Gaussian templates on distinct cell centers, labeled t0..t{count-1}."""
    rows, cols = _scenario_grid(config)
    interior = [(r, c) for r in range(1, rows - 1) for c in range(1, cols - 1)]
    interior = interior or [(r, c) for r in range(rows) for c in range(cols)]
    if count > len(interior):
        raise ParameterError(f"cannot place {count} distinct templates on a {rows}x{cols} grid")
    picks = rng.choice(len(interior), size=count, replace=False)
    return [
        gaussian_2d(rows, cols, float(c), float(r), TEMPLATE_SIGMA, TEMPLATE_SIGMA, label=f"t{k}")
        for k, (r, c) in enumerate(interior[int(pick)] for pick in picks)
    ]


# Each experiment below runs one seed: it appends its rows to the report,
# writes its artifacts through emit and returns the evolution reports of
# the models it trained.  run_experiment holds the seed loop.

def _evolve1d(report: ExperimentReport, config: TrainerConfig, seed: int, emit: Emit) -> list[EvolveReport]:
    """Run the weight rule to quiescence on a hand-wired periodic ring of
    n cells, each wired to RING_NEIGHBORS neighbours per side."""
    n, k = config.n, RING_NEIGHBORS
    if 2 * k >= n:
        raise ParameterError(f"a ring with {k} neighbours per side needs n > {2 * k}, got n={n}")
    idx = np.arange(n)
    gap = np.abs(idx[:, None] - idx[None, :])
    w_initial = np.where((gap > 0) & (np.minimum(gap, n - gap) <= k), 1.0 / (2 * k), 0.0)
    start = WeightMatrix(w_initial)
    tensor = correlation_tensor(start.resolvent, idx)
    evolved, evo = evolve_weights(start, tensor, config.plasticity)
    w_final = evolved.w

    at = lambda offset: w_final[idx, (idx + offset) % n]  # w[i, i + offset] around the ring
    nearest = np.concatenate([at(1), at(-1)])
    third = np.concatenate([at(3), at(-3)])
    margin = float(np.minimum(at(1) - at(3), at(-1) - at(-3)).min())
    non_neighbor = w_final.copy()
    non_neighbor[idx, (idx + 1) % n] = np.nan
    non_neighbor[idx, (idx - 1) % n] = np.nan
    np.fill_diagonal(non_neighbor, np.nan)
    row_sums = w_final.sum(axis=1)

    report.metrics = {
        "steps": evo.steps,
        "converged": int(evo.converged),
        "nearest_mean": float(nearest.mean()),
        "third_mean": float(third.mean()),
        "non_neighbor_mean": float(np.nanmean(non_neighbor)),
        "nearest_over_third_margin": margin,
        "row_sum_min": float(row_sums.min()),
        "row_sum_max": float(row_sums.max()),
    }
    report.rows += [
        {
            "i": int(i),
            "nearest": float(w_final[i, (i + 1) % n]),
            "third": float(w_final[i, (i + 3) % n]),
            "row_sum": float(row_sums[i]),
        }
        for i in range(n)
    ]
    mid = n // 2
    emit("w_matrix_initial.csv", lambda p: save_matrix_csv(w_initial, p))
    emit("w_matrix_final.csv", lambda p: save_matrix_csv(w_final, p))
    emit("w_matrix_initial.pgm", lambda p: save_matrix_pgm(w_initial, p))
    emit("w_matrix_final.pgm", lambda p: save_matrix_pgm(w_final, p))
    emit(
        f"weight_row_{mid}.csv",
        lambda p: write_table(
            p, ("j", "initial", "final"), [(j, float(w_initial[mid, j]), float(w_final[mid, j])) for j in range(n)]
        ),
    )
    emit("trace.csv", evo.save_trace_csv)
    return [evo]


def _recall2d(report: ExperimentReport, config: TrainerConfig, seed: int, emit: Emit) -> list[EvolveReport]:
    """Store one random bump, with and without the swarm, and compare how
    faithfully the network echoes it back."""
    grid = _scenario_grid(config)
    pattern = _random_bump(config, _rng(seed, _STREAM_PATTERN), label="stored")
    models = [
        train(init_model(replace(config, grid=grid, use_firefly=flag, master_seed=seed)), [pattern])
        for flag in (True, False)
    ]
    outputs = [recall(model, pattern)[0] for model in models]
    cw, cwo = (float(cosine(output, pattern)) for output in outputs)
    report.rows.append({"seed": int(seed), "cos_with": cw, "cos_without": cwo, "paired_diff": cw - cwo})
    _emit_pattern(emit, "pattern_input", pattern)
    _emit_pattern(emit, "pattern_output_with", outputs[0])
    _emit_pattern(emit, "pattern_output_without", outputs[1])
    emit("w_matrix_with.csv", lambda p: save_matrix_csv(models[0].weights.w, p))
    emit("w_matrix_without.csv", lambda p: save_matrix_csv(models[1].weights.w, p))
    emit("population.csv", lambda p: save_population_csv(models[0].population, p))
    return models[0].history + models[1].history


def _corruption(report: ExperimentReport, config: TrainerConfig, seed: int, emit: Emit) -> list[EvolveReport]:
    """Denoise (noisy cue) or complete (masked cue) every stored bump, of
    three when the config asks for fewer than two."""
    count = config.pattern_count if config.pattern_count >= 2 else 3
    scfg = replace(config, grid=_scenario_grid(config), master_seed=seed, pattern_count=count)
    templates = _distinct_bumps(scfg, _rng(seed, _STREAM_PATTERN), scfg.pattern_count)
    model = train(init_model(scfg), templates)
    for k, template in enumerate(templates):
        if report.name == "denoise":
            cue = add_noise(template, NOISE_LEVEL, _int_seed(seed, _STREAM_NOISE, k))
        else:
            rng = _rng(seed, _STREAM_MASK, k)
            cue = mask(template, rng.choice(scfg.n, size=int(round(MASK_FRACTION * scfg.n)), replace=False))
        output, metrics = recall(model, cue, template)  # scored against the clean template
        baseline = cosine(cue, template)
        report.rows.append(
            {
                "seed": int(seed),
                "template": template.label,
                "cue_cosine": float(baseline),
                "output_cosine": float(metrics.cosine),
                "improvement": float(metrics.cosine - baseline),
                "best_match": metrics.best_match_label or "",
            }
        )
        if k == 0:
            _emit_pattern(emit, "pattern_clean", template)
            _emit_pattern(emit, "pattern_cue", cue)
            _emit_pattern(emit, "pattern_recovered", output)
            emit("w_matrix_final.csv", lambda p: save_matrix_csv(model.weights.w, p))
            if model.population is not None:
                emit("population.csv", lambda p: save_population_csv(model.population, p))
    return model.history


def _fused(report: ExperimentReport, config: TrainerConfig, seed: int, emit: Emit) -> list[EvolveReport]:
    """Cue with an equal-weight fusion of two stored bumps; a balanced
    network should answer roughly equidistant from both."""
    scfg = replace(config, grid=_scenario_grid(config), master_seed=seed, pattern_count=2)
    t1, t2 = _distinct_bumps(scfg, _rng(seed, _STREAM_PATTERN), 2)
    model = train(init_model(scfg), [t1, t2])
    cue = fuse(t1, t2, 1.0, 1.0)
    output, _ = recall(model, cue)
    c1, c2 = cosine(output, t1), cosine(output, t2)
    skew_out, _ = recall(model, fuse(t1, t2, 1.0, 0.5))
    report.rows.append(
        {
            "seed": int(seed),
            "cos_t1": float(c1),
            "cos_t2": float(c2),
            "gap": float(abs(c1 - c2)),
            "skew_cos_t1": float(cosine(skew_out, t1)),
            "skew_cos_t2": float(cosine(skew_out, t2)),
        }
    )
    _emit_pattern(emit, "pattern_fused", cue)
    _emit_pattern(emit, "pattern_output", output)
    return model.history


_DIGIT_ROWS: dict[str, tuple[str, ...]] = {
    "0": (
        "...#####...",
        "..#######..",
        ".###...###.",
        ".##.....##.",
        ".##.....##.",
        ".##.....##.",
        ".##.....##.",
        ".##.....##.",
        ".###...###.",
        "..#######..",
        "...#####...",
    ),
    "1": (
        "...........",
        "....##.....",
        "...###.....",
        "..####.....",
        "....##.....",
        "....##.....",
        "....##.....",
        "....##.....",
        "....##.....",
        "....##.....",
        "...........",
    ),
}


def digit_template(label: str) -> Pattern:
    """Built-in 11x11 digit glyph with stroke pixels at 1.

    Kept at pixel amplitude (not unit norm) so a noise level expressed as
    a fraction of full scale means the same thing it does for images.
    """
    if label not in _DIGIT_ROWS:
        raise ParameterError(f"no built-in digit {label!r}; have {sorted(_DIGIT_ROWS)}")
    rows = _DIGIT_ROWS[label]
    values = np.array([[1.0 if ch == "#" else 0.0 for ch in row] for row in rows]).ravel()
    return Pattern(values, grid=(len(rows), len(rows[0])), label=label)


def _digits(report: ExperimentReport, config: TrainerConfig, seed: int, emit: Emit) -> list[EvolveReport]:
    """Store the built-in digit glyphs, cue with noisy copies, score label matching."""
    templates = [digit_template(label) for label in _DIGIT_ROWS]
    scfg = replace(
        config, n=templates[0].n, grid=templates[0].grid, master_seed=seed, pattern_count=len(templates)
    )
    model = train(init_model(scfg), templates)
    for k, template in enumerate(templates):
        cue = add_noise(template, NOISE_LEVEL, _int_seed(seed, _STREAM_NOISE, k))
        output, metrics = recall(model, cue)
        report.rows.append(
            {
                "seed": int(seed),
                "digit": template.label,
                "best_match": metrics.best_match_label or "",
                "correct": int(metrics.best_match_label == template.label),
                "output_cosine_true": float(cosine(output, template)),
            }
        )
        stem = f"pattern_digit_{_file_label(template.label)}"
        emit(f"{stem}.pgm", lambda p: save_image(template, p))
        emit(f"{stem}_cue.pgm", lambda p: save_image(cue, p))
        emit(f"{stem}_out.pgm", lambda p: save_image(output, p))
    return model.history


def _digits_summary(rows: list[dict[str, object]]) -> dict[str, float]:
    hits = [row["correct"] for row in rows]
    per_seed = len(_DIGIT_ROWS)
    return {
        "cue_accuracy": sum(hits) / len(hits),
        "perfect_seeds": sum(all(hits[k : k + per_seed]) for k in range(0, len(hits), per_seed)),
    }


def _corruption_summary(rows: list[dict[str, object]]) -> dict[str, float]:
    gains = [row["improvement"] for row in rows]
    return {
        "median_improvement": float(np.median(gains)),
        "mean_improvement": float(np.mean(gains)),
        "fraction_improved": float(np.mean([g > 0.0 for g in gains])),
    }


def _medians(*keys: str) -> Callable[[list[dict[str, object]]], dict[str, float]]:
    return lambda rows: {f"median_{key}": float(np.median([row[key] for row in rows])) for key in keys}


# name -> (one seed's run, the summary read off every seed's rows).  An
# experiment without a summary has no randomness and runs once, whatever
# the seeds; its run sets the report's metrics itself.
_EXPERIMENTS: dict[str, tuple[Callable, Callable | None]] = {
    "evolve1d": (_evolve1d, None),
    "recall2d": (_recall2d, _medians("paired_diff", "cos_with", "cos_without")),
    "denoise": (_corruption, _corruption_summary),
    "complete": (_corruption, _corruption_summary),
    "fused": (_fused, lambda rows: {**_medians("gap")(rows), "gap_target": FUSED_GAP_TARGET}),
    "digits": (_digits, _digits_summary),
}
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def run_experiment(
    config: TrainerConfig,
    experiment: str,
    out_dir: str | Path | None = None,
    seeds: Sequence[int] | None = None,
) -> ExperimentReport:
    """Run one named experiment once per seed; writes artifacts when
    out_dir is set.

    Every experiment derives its per-seed randomness from the given seed
    list (default: the config's master seed), so a fixed config and seed
    list reproduce outputs byte for byte.  Artifacts come from the first
    seed's run.  Each row, and the report, gets the share of its
    evolutions that converged.
    """
    if experiment not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; choose from {EXPERIMENT_NAMES}")
    run_seeds = list(seeds) if seeds is not None else [config.master_seed]
    if not run_seeds:
        raise ParameterError("experiment requires at least one seed")
    run_one, summary = _EXPERIMENTS[experiment]
    report = ExperimentReport(name=experiment)
    out = Path(out_dir) if out_dir is not None else None

    def emit(name: str, writer: Callable[[Path], None]) -> None:
        out.mkdir(parents=True, exist_ok=True)
        writer(out / name)

    history: list[EvolveReport] = []
    for order, seed in enumerate(run_seeds if summary is not None else run_seeds[:1]):
        start = len(report.rows)
        first_emit = emit if out is not None and order == 0 else lambda name, writer: None
        runs = run_one(report, config, seed, first_emit)
        for row in report.rows[start:]:
            row["converged_fraction"] = _converged_fraction(runs)
        history += runs
    if summary is not None:
        report.metrics = {**summary(report.rows), "seeds": len(run_seeds)}
    report.metrics["converged_fraction"] = _converged_fraction(history)

    if out is not None:
        report.save(out)
    return report
