"""The benchmark's workloads: the inputs each makes from its seed, the
operation the benchmark times, and the checks on that operation's output.

Every check is a property of the output or an independent computation
made here; none compares against a stored copy of an earlier output.
Calls into the program go through module attributes (``trainer.recall``,
not a name imported from it), so the tracer's rebinding sees them.
"""

from __future__ import annotations

import math
import shutil
import statistics
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from fireflynet import trainer
from fireflynet.firefly import SETTLE_EPS
from fireflynet.patterns import Pattern, add_noise, cosine, gaussian_2d

NOISE_LEVEL = 0.2  # std of the Gaussian noise added to a cue (full scale 1)
MASK_FRACTION = 0.3  # share of cells zeroed in a masked cue
BUMP_SIGMA = 1.0  # width of a denoise template, in cells
BUMP_COUNT = 3  # templates per denoise op
RECALL_CUES = 200  # cue pool of recall-11x11: alternately noisy and masked
SEED_STRIDE = 100_000  # op k of --seed s trains with master seed s * SEED_STRIDE + k

# The per-run label check on digits-11x11.  Criterion 10 asks that every
# cue be labelled right on at least 90% of seeds.  A run holds too few
# seeds to test that share directly: about one seed in 30 trains a model
# that mislabels a cue, so a run of 20-25 seeds would show three such
# seeds, and read below 90%, in 3-5% of runs.  The run fails instead when
# its count of mislabelling seeds is one that a 90% rate would reach less
# than once in 1,000 runs.
LABEL_RATE = 0.9
LABEL_ODDS = 1e-3


def _int_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**32))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def weight_faults(w: np.ndarray, v: float) -> list[str]:
    """Trained weights are finite, have a zero diagonal and no entry above v."""
    if not np.isfinite(w).all():
        return ["weights are not all finite"]
    faults = []
    if np.any(np.diagonal(w) != 0.0):
        faults.append("weight diagonal is not zero")
    if w.max() > v:
        faults.append(f"weight {float(w.max())!r} above v = {v!r}")
    return faults


def min_pair_distance(points: np.ndarray) -> float:
    """Smallest distance between two distinct points of an (F, 2) array."""
    dx = points[:, 0][:, None] - points[:, 0][None, :]
    dy = points[:, 1][:, None] - points[:, 1][None, :]
    dist = np.sqrt(dx * dx + dy * dy)
    np.fill_diagonal(dist, np.inf)
    return float(dist.min())


def swarm_faults(positions: np.ndarray, settle_converged: bool, d_min: float) -> list[str]:
    """Agents sit in the unit square; a settle that reports convergence has
    left every pair at least d_min - SETTLE_EPS apart."""
    faults = []
    if not ((positions >= 0.0) & (positions <= 1.0)).all():
        faults.append("swarm position outside the unit square")
    if settle_converged and len(positions) > 1:
        gap = min_pair_distance(positions)
        if gap < d_min - SETTLE_EPS:
            faults.append(f"converged settle left a pair {gap!r} apart, d_min = {d_min!r}")
    return faults


def output_faults(values: np.ndarray) -> list[str]:
    """A recall output is finite, non-negative, and unit norm or all zeros."""
    if not np.isfinite(values).all():
        return ["recall output is not all finite"]
    faults = []
    if (values < 0.0).any():
        faults.append("recall output has a negative entry")
    norm = math.sqrt(float(values @ values))
    if norm != 0.0 and abs(norm - 1.0) > 1e-9:
        faults.append(f"recall output norm {norm!r} is neither 1 nor 0")
    return faults


def best_label(values: np.ndarray, templates: list[Pattern]) -> str | None:
    """Label of the stored template with the highest cosine to values; the
    first such template on a tie, None without labelled templates."""
    labelled = [t for t in templates if t.label is not None]
    if not labelled:
        return None
    norm = np.linalg.norm(values)
    scores = [
        0.0 if norm == 0.0 else float(values @ t.values) / (norm * np.linalg.norm(t.values))
        for t in labelled
    ]
    return labelled[int(np.argmax(scores))].label


def label_faults(values: np.ndarray, label: str | None, templates: list[Pattern]) -> list[str]:
    expected = best_label(values, templates)
    if label != expected:
        return [f"best_match_label {label!r}, but the best cosine is {expected!r}"]
    return []


def label_tail_odds(misses: int, trials: int, rate: float = LABEL_RATE) -> float:
    """Chance that a success rate of `rate` gives at least `misses`
    misses in `trials` independent trials (binomial upper tail)."""
    q = 1.0 - rate
    return sum(
        math.comb(trials, m) * q**m * rate ** (trials - m) for m in range(misses, trials + 1)
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Recalled:
    """One cue sent through the model, with the template it was made from."""

    source: Pattern
    cue: Pattern | None  # None for a masked cue, which complete() makes itself
    output: Pattern
    label: str | None


@dataclass
class Trained:
    """Outcome of one training op: the model and its recalled cues."""

    model: trainer.Model
    recalled: list[Recalled]


def _recalled_faults(item: Recalled, templates: list[Pattern]) -> list[str]:
    return output_faults(item.output.values) + label_faults(item.output.values, item.label, templates)


class TrainingWorkload:
    """One op trains a fresh model from a seed of its own, then recalls one
    noisy cue per template: init_model -> train -> recall."""

    digest_ops = 2
    round_ops = 1  # a run attempts whole rounds of this many ops, timing the reference loop after each
    config: trainer.TrainerConfig

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, out_dir: Path) -> None:
        """Nothing is shared between ops: each op's inputs come from prepare."""

    def templates(self, rng: np.random.Generator) -> list[Pattern]:
        raise NotImplementedError

    def prepare(self, k: int) -> tuple[trainer.TrainerConfig, list[Pattern], list[Pattern]]:
        master = self.seed * SEED_STRIDE + k
        rng = np.random.default_rng([self.seed, k])
        templates = self.templates(rng)
        cues = [add_noise(t, NOISE_LEVEL, _int_seed(rng)) for t in templates]
        return replace(self.config, master_seed=master), templates, cues

    def op(self, inputs) -> Trained:
        config, templates, cues = inputs
        model = trainer.train(trainer.init_model(config), templates)
        recalled = []
        for source, cue in zip(templates, cues):
            output, metrics = trainer.recall(model, cue)
            recalled.append(Recalled(source, cue, output, metrics.best_match_label))
        return Trained(model, recalled)

    def check(self, inputs, result: Trained) -> list[str]:
        model = result.model
        faults = weight_faults(model.weights.w, model.config.plasticity.v)
        pop = model.population
        faults += swarm_faults(pop.positions, pop.settle_converged, pop.params.d_min)
        for item in result.recalled:
            faults += _recalled_faults(item, model.templates)
        self.record(result)
        return faults

    def record(self, result: Trained) -> None:
        raise NotImplementedError

    def feed(self, h, result: Trained) -> None:
        h.update(result.model.weights.w.tobytes())
        h.update(result.model.population.positions.tobytes())
        for item in result.recalled:
            h.update(item.output.values.tobytes())
            h.update(repr(item.label).encode())

    def run_faults(self) -> list[str]:
        raise NotImplementedError


class DigitsWorkload(TrainingWorkload):
    """digits-11x11: the two built-in 11x11 glyphs, swarm on (121 agents)."""

    config = trainer.TrainerConfig(n=121, grid=(11, 11), use_firefly=True, pattern_count=2)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.seeds = 0
        self.mislabelling_seeds = 0

    def templates(self, rng: np.random.Generator) -> list[Pattern]:
        return [trainer.digit_template("0"), trainer.digit_template("1")]

    def record(self, result: Trained) -> None:
        self.seeds += 1
        if any(item.label != item.source.label for item in result.recalled):
            self.mislabelling_seeds += 1

    def run_faults(self) -> list[str]:
        odds = label_tail_odds(self.mislabelling_seeds, self.seeds)
        if odds < LABEL_ODDS:
            return [
                f"{self.mislabelling_seeds} of {self.seeds} seeds mislabel a cue; a "
                f"{LABEL_RATE:.0%} per-seed rate gives that with odds {odds:.2g}"
            ]
        return []


class DenoiseWorkload(TrainingWorkload):
    """denoise-5x5: three Gaussian bumps on distinct interior cells of a
    5x5 grid, swarm on (25 agents)."""

    config = trainer.TrainerConfig(n=25, grid=(5, 5), use_firefly=True, pattern_count=BUMP_COUNT)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.gains: list[float] = []

    def templates(self, rng: np.random.Generator) -> list[Pattern]:
        rows, cols = self.config.grid
        interior = [(r, c) for r in range(1, rows - 1) for c in range(1, cols - 1)]
        picks = rng.choice(len(interior), size=BUMP_COUNT, replace=False)
        return [
            gaussian_2d(rows, cols, float(c), float(r), BUMP_SIGMA, BUMP_SIGMA, label=f"t{k}")
            for k, (r, c) in enumerate(interior[int(p)] for p in picks)
        ]

    def record(self, result: Trained) -> None:
        for item in result.recalled:
            self.gains.append(cosine(item.output, item.source) - cosine(item.cue, item.source))

    def run_faults(self) -> list[str]:
        gain = statistics.median(self.gains)
        if not gain > 0.0:
            return [f"median cosine gain of output over cue is {gain!r}, not > 0"]
        return []


class RecallWorkload:
    """recall-11x11: the read path of one saved and reloaded digits model.

    Set-up trains the digits-11x11 config at its default master seed 0,
    saves the model and loads it back.
    The model is not drawn from --seed: about one digits seed in 30
    trains a model that mislabels many cues, which would fail the label
    check for those seeds whatever the read path does; digits-11x11
    covers training quality.  The cue pool is drawn from --seed and
    alternates a noisy cue sent through `recall` with a masked cue sent
    through `complete`; ops cycle through the pool.
    """

    digest_ops = RECALL_CUES
    round_ops = RECALL_CUES
    config = DigitsWorkload.config

    def __init__(self, seed: int):
        self.seed = seed
        self.model: trainer.Model | None = None
        self.pool: list[tuple[Pattern, Pattern | None, np.ndarray | None]] = []
        self.labelled = 0
        self.correct = 0

    def setup(self, out_dir: Path) -> None:
        glyphs = [trainer.digit_template("0"), trainer.digit_template("1")]
        config = self.config
        model = trainer.train(trainer.init_model(config), glyphs)
        out_dir.mkdir(parents=True, exist_ok=True)
        model_dir = Path(tempfile.mkdtemp(prefix="model-", dir=out_dir))
        try:
            trainer.save_model(model, model_dir)
            self.model = trainer.load_model(model_dir)
        finally:
            shutil.rmtree(model_dir)
        rng = np.random.default_rng(self.seed)
        n_masked = int(round(MASK_FRACTION * config.n))
        self.pool = []
        for j in range(RECALL_CUES):
            source = glyphs[(j // 2) % 2]
            if j % 2 == 0:
                self.pool.append((source, add_noise(source, NOISE_LEVEL, _int_seed(rng)), None))
            else:
                self.pool.append((source, None, rng.choice(config.n, size=n_masked, replace=False)))

    def prepare(self, k: int):
        return self.pool[k % RECALL_CUES]

    def op(self, inputs) -> Recalled:
        source, cue, masked = inputs
        if masked is None:
            output, metrics = trainer.recall(self.model, cue)
        else:
            output, metrics = trainer.complete(self.model, source, masked)
        return Recalled(source, cue, output, metrics.best_match_label)

    def check(self, inputs, result: Recalled) -> list[str]:
        self.labelled += 1
        self.correct += int(result.label == result.source.label)
        return _recalled_faults(result, self.model.templates)

    def feed(self, h, result: Recalled) -> None:
        h.update(result.output.values.tobytes())
        h.update(repr(result.label).encode())

    def run_faults(self) -> list[str]:
        share = self.correct / self.labelled
        if share < LABEL_RATE:
            return [f"{share:.3f} of cues labelled with their source glyph, below {LABEL_RATE}"]
        return []


WORKLOADS = {
    "digits-11x11": DigitsWorkload,
    "denoise-5x5": DenoiseWorkload,
    "recall-11x11": RecallWorkload,
}
