"""Model lifecycle: init, presentation, recall, persistence, experiments."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fireflynet.dynamics import WeightMatrix, load_matrix_csv, truncated_resolvent
from fireflynet.errors import (
    ConfigError,
    ParameterError,
    PatternAnnihilatedError,
    ShapeMismatchError,
)
from fireflynet.firefly import GridLayout, SwarmParams
from fireflynet.patterns import (
    Pattern,
    active_set,
    add_noise,
    cosine,
    gaussian_2d,
    load_image,
    relative_threshold,
)
from fireflynet.plasticity import PlasticityParams, evolve_weights, row_fixed_points
from fireflynet.trainer import (
    ACTIVE_FRACTION,
    CONFIG_KEY_HELP,
    CONFIG_KEYS,
    ExperimentReport,
    Model,
    TrainerConfig,
    _row_normalize_capped,
    _similarity,
    complete,
    config_from_dict,
    config_to_dict,
    digit_template,
    format_kv,
    init_model,
    load_model,
    parse_kv_text,
    present_pattern,
    recall,
    run_experiment,
    save_model,
    train,
)

from oracles import (
    complete_reference,
    recall_reference,
    row_fixed_points_reference,
    row_normalize_capped_reference,
    same_bits,
    similarity_reference,
)


def small_config(**kw) -> TrainerConfig:
    base = dict(n=25, grid=(5, 5), use_firefly=False)
    base.update(kw)
    return TrainerConfig(**base)


def zero_model(n: int, grid=None) -> Model:
    cfg = TrainerConfig(n=n, grid=grid)
    return Model(weights=WeightMatrix(np.zeros((n, n))), population=None, config=cfg)


def center_bump() -> Pattern:
    return gaussian_2d(5, 5, 2.0, 2.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# configuration object
# ---------------------------------------------------------------------------

def test_config_rejects_inconsistent_fields():
    with pytest.raises(ParameterError):
        TrainerConfig(n=1)
    with pytest.raises(ShapeMismatchError):
        TrainerConfig(n=10, grid=(3, 3))
    with pytest.raises(ParameterError):
        TrainerConfig(n=9, grid=(-3, -3))
    with pytest.raises(ParameterError, match="master_seed must be >= 0, got -1"):
        TrainerConfig(n=9, master_seed=-1)
    with pytest.raises(ParameterError):
        TrainerConfig(n=9, epochs=0)


FLOAT_FIELDS = [(cls, f.name) for cls in (SwarmParams, PlasticityParams, TrainerConfig)
                for f in fields(cls) if f.type in (float, "float")]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS])
def test_every_float_parameter_rejects_nan_and_infinities(cls, name, bad):
    required = {"n": 9} if cls is TrainerConfig else {}
    with pytest.raises(ParameterError, match=rf"\b{name}\b.* got .*{bad}"):
        cls(**required, **{name: bad})


INT_FIELDS = [(cls, f.name) for cls in (GridLayout, SwarmParams, PlasticityParams, TrainerConfig)
              for f in fields(cls) if f.type in (int, "int")]


@pytest.mark.parametrize("cls, name", INT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in INT_FIELDS])
def test_every_integer_parameter_rejects_a_non_integer(cls, name):
    # a numpy integer passes; a float fails even where its value is whole
    required = {GridLayout: {"rows": 3, "cols": 3}, TrainerConfig: {"n": 9}}.get(cls, {})
    whole = required.get(name, 3)
    assert getattr(cls(**{**required, name: np.int64(whole)}), name) == whole
    for bad in (1.5, float(whole)):
        with pytest.raises(ParameterError, match=rf"^{name} must be an integer, got {bad!r}$"):
            cls(**{**required, name: bad})


def test_config_derived_helpers():
    cfg = TrainerConfig(n=12, grid=(3, 4), use_firefly=True)
    assert (cfg.layout().rows, cfg.layout().cols) == (3, 4)
    assert len(init_model(cfg).population) == 12  # one agent per cell
    line = TrainerConfig(n=7)
    assert (line.layout().rows, line.layout().cols) == (1, 7)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_is_reproducible_and_seed_sensitive():
    a = init_model(small_config(master_seed=5)).weights.w
    b = init_model(small_config(master_seed=5)).weights.w
    c = init_model(small_config(master_seed=6)).weights.w
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_init_rows_are_normalized_under_the_cap():
    model = init_model(small_config(master_seed=2))
    w = model.weights.w
    v = model.config.plasticity.v
    assert np.all(w >= 0.0) and np.all(w <= v)
    assert np.array_equal(np.diagonal(w), np.zeros(25))
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-9


@st.composite
def capped_rows(draw):
    """Non-negative rows, some all zero, some with signed zeros, skewed so
    that scaled entries land above v; a v below 1 / n saturates whole rows."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random((n, n)) ** draw(st.sampled_from((1, 4, 16)))
    w[rng.random((n, n)) < 0.2] = -0.0
    w[rng.random(n) < 0.25] = draw(st.sampled_from((0.0, -0.0)))
    return w, draw(st.sampled_from((0.05, 0.5)) | st.floats(0.01, 1.0))


@settings(deadline=None, max_examples=200)
@given(capped_rows())
def test_row_normalisation_returns_the_reference_bits(inputs):
    w, v = inputs
    before = w.copy()
    assert same_bits(_row_normalize_capped(w, v), row_normalize_capped_reference(w, v))
    assert same_bits(w, before)


def test_init_weights_decay_with_cell_distance():
    # aggregate over many seeds: adjacent cells get clearly more mass
    # than cells three apart
    r, c = np.divmod(np.arange(25), 5)
    d2 = (r[:, None] - r[None, :]) ** 2 + (c[:, None] - c[None, :]) ** 2
    near, far = d2 == 1, d2 == 9
    near_total, far_total = 0.0, 0.0
    for seed in range(200):
        w = init_model(small_config(master_seed=seed)).weights.w
        near_total += w[near].mean()
        far_total += w[far].mean()
    assert near_total > 2.0 * far_total


def test_hand_wired_ring_is_exact(tmp_path):
    # evolve1d starts from a ring of 3 neighbours per side at 1/6 each
    run_experiment(TrainerConfig(n=25), "evolve1d", out_dir=tmp_path)
    w = load_matrix_csv(tmp_path / "w_matrix_initial.csv")
    level = 1.0 / 6.0
    want = np.zeros((25, 25))
    for i in range(25):
        for step in (1, 2, 3):
            want[i, (i + step) % 25] = level
            want[i, (i - step) % 25] = level
    assert np.array_equal(w, want)


@pytest.mark.parametrize("n", [12, 25, 40])
def test_evolve1d_keeps_the_ring_circulant(tmp_path, n):
    # every cell of the ring sees the same neighbourhood, so every row of
    # the evolved weights is row 0 rotated to that cell
    run_experiment(TrainerConfig(n=n), "evolve1d", out_dir=tmp_path)
    w = load_matrix_csv(tmp_path / "w_matrix_final.csv")
    rows = np.stack([np.roll(w[i], -i) for i in range(n)])
    assert np.abs(rows - rows[0]).max() <= 1e-12


def test_evolve1d_needs_a_ring_wider_than_its_neighbourhood():
    with pytest.raises(ParameterError, match="needs n > 6, got n=6"):
        run_experiment(TrainerConfig(n=6), "evolve1d")


def test_init_spawns_population_only_when_asked():
    assert init_model(small_config()).population is None
    with_swarm = init_model(small_config(use_firefly=True))
    assert with_swarm.population is not None
    assert len(with_swarm.population) == 25


# ---------------------------------------------------------------------------
# presentation and training
# ---------------------------------------------------------------------------

def test_blank_input_relaxes_weights_to_uniform():
    cfg = small_config(
        plasticity=PlasticityParams(alpha=0.1, max_steps=20000), master_seed=1
    )
    model = init_model(cfg)
    present_pattern(model, Pattern(np.zeros(25), grid=(5, 5)))
    assert model.history[-1].converged
    off = ~np.eye(25, dtype=bool)
    assert np.abs(model.weights.w[off] - 1.0 / 25).max() <= 1e-4


def record_presentations(monkeypatch) -> list[tuple[WeightMatrix, np.ndarray, PlasticityParams]]:
    """Collects each presentation's start weights, tensor and rule as
    present_pattern hands them to the fixed-point solve, which still runs."""
    starts = []

    def record(w, t, params):
        starts.append((w, t, params))
        return row_fixed_points(w, t, params)

    monkeypatch.setattr("fireflynet.trainer.row_fixed_points", record)
    return starts


def test_second_presentation_of_the_same_pattern_settles_faster(monkeypatch):
    # the first pass does the structural work; re-presenting the pattern
    # starts near the fixed point, so Euler from that start needs fewer steps
    # (each presentation itself only polishes the solved point, in one step)
    diffs = []
    for seed in range(20):
        cfg = small_config(
            master_seed=seed,
            plasticity=PlasticityParams(v=0.05, max_steps=20000),
        )
        model = init_model(cfg)
        starts = record_presentations(monkeypatch)
        present_pattern(model, center_bump())
        present_pattern(model, center_bump())
        assert [report.steps for report in model.history] == [1, 1]
        runs = [evolve_weights(*start)[1] for start in starts]
        assert runs[0].converged and runs[1].converged
        diffs.append(runs[1].steps - runs[0].steps)
    assert np.median(diffs) <= 0


def test_presentations_learn_the_fixed_point_euler_reaches_from_their_start(monkeypatch):
    # criterion 7's runs at these seeds each hold a presentation with a row
    # whose tensor is negative off the diagonal but for at most one entry:
    # its lambda has three roots, the saturated corner among them, and the
    # positive stretch of g before Euler's root is narrow.  A uniform
    # 16-point scan of lambda skips it at seeds 0, 10 and 17, and a search
    # whose steps double from |g| does at seed 8; both land on the corner,
    # about 0.48 from Euler's weights.
    cfg = TrainerConfig(n=25, grid=(5, 5), use_firefly=True, pattern_count=3)
    starts = record_presentations(monkeypatch)
    run_experiment(cfg, "denoise", seeds=[0, 8, 10, 17])
    assert len(starts) == 4 * 15
    for w, t, params in starts:
        solved = row_fixed_points(w, t, params)
        assert np.array_equal(solved.w, row_fixed_points_reference(w.w, t, params))
        polished, report = evolve_weights(solved, t, params)
        euler, euler_report = evolve_weights(w, t, replace(params, max_steps=20000))
        assert report.converged and report.steps == 1 and euler_report.converged
        assert np.abs(polished.w - euler.w).max() <= 1e-4


def test_learning_favors_connections_inside_the_active_set():
    for seed in range(5):
        cfg = small_config(
            master_seed=seed, plasticity=PlasticityParams(max_steps=20000)
        )
        model = init_model(cfg)
        p = center_bump()
        present_pattern(model, p)
        act = set(active_set(p, relative_threshold(p, ACTIVE_FRACTION)).tolist())
        inact = [i for i in range(25) if i not in act]
        w = model.weights.w
        aa = np.mean([w[i, j] for i in act for j in act if i != j])
        ai = np.mean([w[i, j] for i in act for j in inact])
        assert aa > ai


def test_presentation_validates_pattern_length():
    model = init_model(small_config())
    with pytest.raises(ShapeMismatchError):
        present_pattern(model, Pattern(np.ones(9)))


def test_training_requires_patterns():
    with pytest.raises(ParameterError):
        train(init_model(small_config()), [])


def test_labeled_templates_are_remembered_once():
    model = init_model(small_config(epochs=3))
    a = gaussian_2d(5, 5, 1.0, 1.0, 1.0, 1.0, label="a")
    b = gaussian_2d(5, 5, 3.0, 3.0, 1.0, 1.0, label="b")
    train(model, [a, b])
    assert [t.label for t in model.templates] == ["a", "b"]
    assert len(model.history) == 6


# ---------------------------------------------------------------------------
# recall and completion
# ---------------------------------------------------------------------------

def test_recall_with_no_coupling_echoes_the_cue():
    model = zero_model(25, grid=(5, 5))
    out, met = recall(model, center_bump())
    assert met.cosine >= 1.0 - 1e-12
    assert out.grid == (5, 5)
    assert abs(float(np.linalg.norm(out.values)) - 1.0) <= 1e-12


def test_recall_rejects_hopeless_cues():
    model = zero_model(9)
    with pytest.raises(ParameterError):
        recall(model, Pattern(np.zeros(9)))
    with pytest.raises(ShapeMismatchError):
        recall(model, Pattern(np.ones(4)))


def test_completion_with_empty_mask_is_plain_recall():
    model = zero_model(25, grid=(5, 5))
    p = center_bump()
    via_complete, met = complete(model, p, [])
    via_recall, _ = recall(model, p)
    assert np.array_equal(via_complete.values, via_recall.values)
    assert not met.low_confidence


def test_completion_flags_a_fully_masked_active_set():
    model = zero_model(9)
    values = np.full(9, 0.05)
    values[0] = 1.0
    values[1] = 0.9
    p = Pattern(values)
    _, met = complete(model, p, [0, 1])
    assert met.low_confidence


def test_best_match_label_points_at_the_stored_template():
    a = gaussian_2d(5, 5, 1.0, 1.0, 1.0, 1.0, label="a")
    b = gaussian_2d(5, 5, 3.0, 3.0, 1.0, 1.0, label="b")
    for seed in range(3):
        model = train(init_model(small_config(master_seed=seed)), [a, b])
        for template in (a, b):
            _, met = recall(model, template)
            assert met.best_match_label == template.label


def trained_model() -> Model:
    a = gaussian_2d(5, 5, 1.0, 1.0, 1.0, 1.0, label="a")
    b = gaussian_2d(5, 5, 3.0, 3.0, 1.0, 1.0, label="b")
    return train(init_model(small_config(use_firefly=True, master_seed=2)), [a, b])


def assert_same_read(got, want):
    assert np.array_equal(got[0].values, want[0].values)
    assert got[0].grid == want[0].grid
    names = ("cosine", "mse", "pearson", "best_match_label", "low_confidence")
    assert [repr(getattr(got[1], k)) for k in names] == [repr(getattr(want[1], k)) for k in names]


def read_path_cases(model):
    """Recall a clean, a noisy and an off-centre cue twice each (the second
    read hits the memoised resolvent), then complete with a mask that
    covers the active set and with one that does not."""
    a = model.templates[0]
    cues = [a, add_noise(a, 0.3, 11), gaussian_2d(5, 5, 0.5, 3.5, 1.2, 0.8)]
    for cue in cues + cues:
        assert_same_read(recall(model, cue), recall_reference(model, cue))
    covered = active_set(a, relative_threshold(a, ACTIVE_FRACTION)).tolist()
    for masked, flagged in ((covered, True), ([0, 7, 24], False)):
        got = complete(model, a, masked)
        assert got[1].low_confidence is flagged
        assert_same_read(got, complete_reference(model, a, masked))


def test_read_path_matches_the_reference_bit_for_bit(tmp_path):
    model = trained_model()
    assert float(model.weights.w.min()) < 0.0  # the swarm's inhibition is in play
    read_path_cases(model)
    save_model(model, tmp_path)
    read_path_cases(load_model(tmp_path))


def test_a_wiped_out_response_matches_the_reference():
    # cell 1 excites cell 0 and cell 0 inhibits cell 1: the series
    # D = I + W + W^2 + W^3 cancels to zero on both, so a cue there is
    # wiped out
    w = np.zeros((4, 4))
    w[0, 1], w[1, 0] = 1.0, -1.0
    model = Model(WeightMatrix(w), None, TrainerConfig(n=4))
    model.templates += [Pattern(np.array([1.0, 0, 0, 0]), label="x"), Pattern(np.ones(4), label="y")]
    cue = Pattern(np.array([1.0, 0.5, 0, 0]))
    got = recall(model, cue)
    assert not got[0].values.any() and got[1].cosine == 0.0
    assert_same_read(got, recall_reference(model, cue))
    assert_same_read(complete(model, cue, [1]), complete_reference(model, cue, [1]))


def score_vectors(n: int):
    """Length-n activity vectors: all zero, constant, one nonzero entry,
    or arbitrary, with entries in [0, 1] down to the subnormals."""
    value = st.floats(0.0, 1.0)

    def single(i: int, x: float) -> np.ndarray:
        v = np.zeros(n)
        v[i] = x
        return v

    return st.one_of(
        st.just(np.zeros(n)),
        value.map(lambda x: np.full(n, x)),
        st.tuples(st.integers(0, n - 1), value).map(lambda ix: single(*ix)),
        st.lists(value, min_size=n, max_size=n).map(np.array),
    )


@st.composite
def scoring_inputs(draw):
    n = draw(st.integers(2, 150))
    output = Pattern(draw(score_vectors(n)))
    reference = Pattern(draw(score_vectors(n)))
    labels = st.sampled_from([None, "a", "b"])
    templates = [
        Pattern(draw(score_vectors(n)), label=draw(labels)) for _ in range(draw(st.integers(0, 3)))
    ]
    return output, reference, templates


@settings(max_examples=400, deadline=None)
@given(scoring_inputs())
def test_recall_scoring_matches_the_numpy_reference_bit_for_bit(inputs):
    try:
        want = similarity_reference(*inputs)
    except PatternAnnihilatedError:
        with pytest.raises(PatternAnnihilatedError):
            _similarity(*inputs)
        return
    got = _similarity(*inputs)
    assert [repr(got.cosine), repr(got.mse), repr(got.pearson), got.best_match_label] == [
        repr(want.cosine), repr(want.mse), repr(want.pearson), want.best_match_label
    ]


def layouts():
    """A line of 2-12 cells or a grid of 1-4 by 1-4 cells (2 or more in all)."""
    line = st.integers(2, 12).map(lambda n: (n, None))
    grid = st.integers(1, 4).flatmap(lambda rows: st.tuples(st.just(rows), st.integers(2 if rows == 1 else 1, 4)))
    return st.one_of(line, grid.map(lambda g: (g[0] * g[1], g)))


def read_weights(n: int):
    """Signed n x n weights with a zero diagonal: seeded uniform entries at
    one of three scales, or uniform inhibition strong enough that D @ cue
    is wiped out on most cues."""
    seeds, scales = st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 3.0])
    scaled = st.tuples(seeds, scales).map(lambda s: np.random.default_rng(s[0]).uniform(-s[1], s[1], (n, n)))
    inhibition = st.sampled_from([1.0, 2.0]).map(lambda k: -k * (np.ones((n, n)) - np.eye(n)))

    def zero_diagonal(w: np.ndarray) -> np.ndarray:
        np.fill_diagonal(w, 0.0)
        return w

    return st.one_of(scaled, inhibition).map(zero_diagonal)


def read_masks(n: int):
    """Masks as a list (duplicates allowed), a set, a range or, as often as
    the three together, a numpy array of integer dtype or of floats a
    quarter past an integer, flat or as one column (which int() refuses);
    mostly in range, sometimes empty."""
    listed = st.lists(st.one_of(st.integers(0, n - 1), st.integers(-1, n)), max_size=2 * n)
    ranged = st.tuples(st.integers(-1, n), st.integers(0, n + 1), st.integers(1, 3)).map(lambda r: range(*r))

    def array(indices: list[int], dtype: type, shape: tuple[int, ...]) -> np.ndarray:
        if dtype is np.float64:
            return (np.array(indices, dtype=dtype) + 0.25).reshape(shape)
        return np.array(np.abs(indices), dtype=dtype).reshape(shape)

    dtypes = st.sampled_from([np.int64, np.int32, np.uint8, np.float64])
    shapes = st.sampled_from([(-1,), (-1,), (-1, 1)])
    arrays = st.builds(array, st.lists(st.integers(-1, n), max_size=2 * n), dtypes, shapes)
    return st.sampled_from([listed, listed.map(set), ranged, arrays, arrays, arrays]).flatmap(lambda kind: kind)


def read_vectors(n: int):
    """Length-n activity vectors: mostly seeded uniform entries, cubed for
    a faint tail below the active threshold or not, on a share of the
    cells (one at least), else one of ``score_vectors``."""

    def sparse(seed: int, power: int, share: float) -> np.ndarray:
        values, draws = np.random.default_rng(seed).uniform(0.0, 1.0, (2, n))
        return values**power * ((draws < share) | (draws == draws.min()))

    drawn = st.builds(sparse, st.integers(0, 2**32 - 1), st.sampled_from([1, 3]), st.sampled_from([0.3, 0.7, 1.0]))
    return st.integers(0, 3).flatmap(lambda k: drawn if k < 3 else score_vectors(n))  # one_of would draw each once


@st.composite
def read_inputs(draw):
    """A model of drawn weights and templates, a cue on the model's own
    layout or another one of its length, a reference (None, of the
    model's length, or of another length) and a mask, sometimes exactly
    the cue's active set."""
    n, grid = draw(layouts())
    model = Model(WeightMatrix(draw(read_weights(n))), None, TrainerConfig(n=n, grid=grid))
    cue = Pattern(draw(read_vectors(n)), grid=draw(st.sampled_from([grid, None, (1, n), (n, 1)])))
    labels = st.sampled_from([None, "a", "b", "c"])
    for _ in range(draw(st.integers(0, 3))):
        if model.templates and draw(st.booleans()):  # an exact tie under another label
            values = model.templates[draw(st.integers(0, len(model.templates) - 1))].values
        else:
            values = draw(read_vectors(draw(st.sampled_from([n] * 9 + [n + 1]))))
        model.templates.append(Pattern(values, label=draw(labels)))
    lengths = st.sampled_from([None, n, n, n + 1])
    reference = draw(lengths.flatmap(lambda m: st.none() if m is None else read_vectors(m).map(Pattern)))
    active = active_set(cue, relative_threshold(cue, ACTIVE_FRACTION)).tolist()
    return model, cue, reference, draw(st.integers(0, 2).flatmap(lambda k: read_masks(n) if k else st.just(active)))


def same_read_or_same_error(read, reference_read):
    """Both reads return the same bits, or both raise the same type and message."""
    try:
        want = reference_read()
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            read()
        assert str(raised.value) == str(exc)
        return
    assert_same_read(read(), want)


@settings(max_examples=150, deadline=None)
@given(read_inputs())
def test_generated_reads_match_the_reference_bit_for_bit(inputs):
    model, cue, reference, masked = inputs
    same_read_or_same_error(lambda: recall(model, cue, reference), lambda: recall_reference(model, cue, reference))
    same_read_or_same_error(lambda: complete(model, cue, masked), lambda: complete_reference(model, cue, masked))


def test_an_overflowing_response_raises_or_reads_as_zero_as_the_checked_constructor_decides():
    # 1e120 weights overflow D itself, so the response is not finite and the
    # checked constructor rejects it; 1e60 weights leave finite entries whose
    # squares overflow the norm, which scales the output to the zero pattern
    cue = Pattern(np.array([1.0, 0.5, 0.0, 0.0]))

    def model(scale: float) -> Model:
        w = np.full((4, 4), scale)
        np.fill_diagonal(w, 0.0)
        return Model(WeightMatrix(w), None, TrainerConfig(n=4))

    with np.errstate(over="ignore", invalid="ignore"):
        for read in (lambda m: recall(m, cue), lambda m: complete(m, cue, [3])):
            with pytest.raises(ParameterError, match="^pattern values must be finite$"):
                read(model(1e120))
            output, metrics = read(model(1e60))
            assert np.array_equal(output.values, np.zeros(4)) and repr(metrics.cosine) == "0.0"


def test_recall_metrics_keep_their_own_copies_of_the_scored_vectors():
    model = trained_model()
    a = model.templates[0]
    for output, metrics in (recall(model, add_noise(a, 0.3, 11)), complete(model, a, [0, 7, 24])):
        want = [repr(metrics.mse), repr(metrics.pearson)]
        output.values[:] = 0.0
        assert [repr(metrics.mse), repr(metrics.pearson)] == want


def test_a_read_that_leaves_mse_and_pearson_unread_never_correlates(monkeypatch):
    model = trained_model()
    a = model.templates[0]

    def refuse(*args, **kwargs):
        raise AssertionError("np.corrcoef called")

    monkeypatch.setattr(np, "corrcoef", refuse)
    recall(model, add_noise(a, 0.3, 11))
    _, metrics = complete(model, a, [0, 7, 24])
    with pytest.raises(AssertionError, match="np.corrcoef called"):
        metrics.pearson


def test_recall_follows_the_weights_after_a_presentation():
    model = trained_model()
    cue = add_noise(model.templates[1], 0.3, 5)
    before = model.weights
    recall(model, cue)  # builds the memo for the old weights
    present_pattern(model, model.templates[0])
    assert not np.array_equal(model.weights.w, before.w)
    assert_same_read(recall(model, cue), recall_reference(model, cue))


def test_weights_and_their_resolvent_are_read_only_and_the_caller_array_is_not():
    model = trained_model()
    with pytest.raises(ValueError):
        model.weights.w[0, 1] = 0.25
    with pytest.raises(ValueError):
        model.weights.resolvent[0, 1] = 0.25
    a = np.zeros((3, 3))
    wm = WeightMatrix(a)
    assert a.flags.writeable and not np.shares_memory(a, wm.w)
    a[0, 1] = 0.5
    assert wm.w[0, 1] == 0.0


@pytest.mark.parametrize("use_firefly", [False, True])
def test_a_presentation_leaves_read_only_weights_whose_resolvent_is_their_own(use_firefly):
    # the library wraps the arrays it builds from checked weights without a
    # copy, so they must still be its own and read-only
    model = init_model(small_config(use_firefly=use_firefly, master_seed=3))
    for p in (center_bump(), gaussian_2d(5, 5, 1.0, 3.0, 1.0, 1.0), center_bump()):
        present_pattern(model, p)
        w = model.weights
        assert not w.w.flags.writeable
        with pytest.raises(ValueError):
            w.w[0, 1] = 0.25
        assert same_bits(w.resolvent, truncated_resolvent(w))


# ---------------------------------------------------------------------------
# config serialization
# ---------------------------------------------------------------------------

def test_kv_text_parsing_and_rejection():
    text = "# comment\n\nn = 9\nrows=3\ncols = 3  # trailing\n"
    assert parse_kv_text(text) == {"n": "9", "rows": "3", "cols": "3"}
    with pytest.raises(ConfigError):
        parse_kv_text("n = 9\nn = 10\n")
    with pytest.raises(ConfigError):
        parse_kv_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_kv_text("= 3\n")


def test_config_round_trips_through_text():
    cfg = TrainerConfig(
        n=12,
        grid=(3, 4),
        use_firefly=True,
        plasticity=PlasticityParams(alpha=0.02, beta=0.8, v=0.4, max_steps=123, tol=1e-7),
        swarm=SwarmParams(b=1.5, gamma=2.0, eta=0.1, d_min=0.02, steps=7),
        pattern_count=4,
        master_seed=9,
        epochs=3,
    )
    back = config_from_dict(parse_kv_text(format_kv(config_to_dict(cfg))))
    assert back == cfg


def test_dt_is_an_unknown_config_key():
    # every evolution derives its step from its tensor, so a config that
    # sets one, or a model saved when a fixed step existed, is rejected
    kv = config_to_dict(TrainerConfig(n=9))
    assert "dt" not in kv and kv["max_steps"] == "1000"
    with pytest.raises(ConfigError, match="unknown config keys: dt"):
        config_from_dict({"n": "9", "dt": "0.01"})
    # and no stability check can fail on the config alone
    TrainerConfig(n=100, plasticity=PlasticityParams(alpha=1.0))


@st.composite
def config_dicts(draw):
    """Flat key/value dicts over every key, each key present or left at
    its default; the grid sides, when present, multiply to n."""
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(2, 6))
        kv = {"n": str(rows * cols), "rows": str(rows), "cols": str(cols)}
    else:
        kv = {"n": str(draw(st.integers(2, 40)))}
    # small positive floats, inside the domain of most float keys
    by_kind = {bool: st.booleans(), int: st.integers(1, 50), float: st.floats(1e-4, 0.15)}
    for spec in CONFIG_KEYS:
        if spec.key in kv or not draw(st.booleans()):
            continue
        kv[spec.key] = spec.format(draw(by_kind[spec.kind]))
    return kv


@settings(max_examples=100, deadline=None)
@given(config_dicts())
def test_config_round_trips_through_text_for_generated_configs(kv):
    try:
        cfg = config_from_dict(kv)
    except ConfigError:
        assume(False)
    back = config_from_dict(parse_kv_text(format_kv(config_to_dict(cfg))))
    assert back == cfg


def test_config_dict_rejects_malformed_input():
    with pytest.raises(ConfigError):
        config_from_dict({"n": "9", "bogus": "1"})
    with pytest.raises(ConfigError):
        config_from_dict({"rows": "3", "cols": "3"})
    with pytest.raises(ConfigError):
        config_from_dict({"n": "9", "rows": "3"})
    with pytest.raises(ConfigError):
        config_from_dict({"n": "9", "rows": "-3", "cols": "-3"})
    with pytest.raises(ConfigError):
        config_from_dict({"n": "abc"})
    with pytest.raises(ConfigError):
        config_from_dict({"n": "9", "alpha": "fast"})
    with pytest.raises(ConfigError):
        config_from_dict({"n": "9", "use_firefly": "maybe"})
    with pytest.raises(ConfigError):
        config_from_dict({"n": "9", "boundary": "twisted"})
    with pytest.raises(ConfigError):
        config_from_dict({"n": "9", "v": "-1.0"})
    for raw in ("nan", "inf", "-inf", "1e999"):
        with pytest.raises(ConfigError, match="tol: expected a finite number"):
            config_from_dict({"n": "9", "tol": raw})


def test_every_help_key_is_accepted():
    kv = config_to_dict(small_config(use_firefly=True))
    assert set(kv) <= set(CONFIG_KEY_HELP)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_model_round_trips_through_files(tmp_path):
    cfg = TrainerConfig(n=9, grid=(3, 3), use_firefly=True, epochs=1, master_seed=7)
    model = train(init_model(cfg), [gaussian_2d(3, 3, 1.0, 1.0, 1.0, 1.0, label="mid")])
    save_model(model, tmp_path)
    back = load_model(tmp_path)
    assert np.array_equal(back.weights.w, model.weights.w)
    assert back.config == model.config
    assert np.array_equal(back.population.positions, model.population.positions)
    assert np.array_equal(back.population.excitatory, model.population.excitatory)
    assert [t.label for t in back.templates] == ["mid"]
    # the pattern loader renormalizes, which can shift values one ulp
    assert np.abs(back.templates[0].values - model.templates[0].values).max() <= 1e-12


def test_templates_round_trip_in_order_with_their_labels(tmp_path):
    model = zero_model(9, grid=(3, 3))
    labels = [f"p{k}" for k in range(12)] + ["zero digit"]
    for k, label in enumerate(labels):
        model.templates.append(gaussian_2d(3, 3, k % 3, k // 3 % 3, 1.0, 1.0, label=label))
    save_model(model, tmp_path)
    assert (tmp_path / "templates" / "t11_p11.csv").is_file()
    back = load_model(tmp_path)
    assert [t.label for t in back.templates] == labels
    for got, want in zip(back.templates, model.templates):
        assert np.abs(got.values - want.values).max() <= 1e-12


def test_loading_rejects_a_size_mismatch(tmp_path):
    model = zero_model(9, grid=(3, 3))
    save_model(model, tmp_path)
    cfg_file = tmp_path / "config.cfg"
    text = cfg_file.read_text().replace("n = 9", "n = 16")
    text = text.replace("rows = 3", "rows = 4").replace("cols = 3", "cols = 4")
    cfg_file.write_text(text)
    with pytest.raises(ShapeMismatchError):
        load_model(tmp_path)



@pytest.mark.parametrize(
    "key, kept, other",
    [
        ("learn_schedule", "onset", "converged"),
        ("recall_iterations", "1", "2"),
        ("reset_per_pattern", "false", "true"),
        ("boundary", "open", "periodic"),
        ("theta_act", "0.1", "0.2"),
        ("topology_mix", "0.3", "0.5"),
        ("init_sigma_cells", "1.5", "2.0"),
        ("excit_fraction", "0.7", "0.6"),
        ("population_factor", "1.0", "2.0"),
        ("kernel_pitches", "1.5", "1.2"),
        ("inhib_pitches", "3.0", "2.5"),
        ("inhibition_gain", "1.0", "0.9"),
    ],
)
def test_a_retired_key_loads_only_at_the_value_that_stayed(tmp_path, key, kept, other):
    # every model saved while the key existed echoes it, at its default
    model = zero_model(9, grid=(3, 3))
    save_model(model, tmp_path)
    cfg_file = tmp_path / "config.cfg"
    saved = cfg_file.read_text()
    cfg_file.write_text(f"{saved}{key} = {kept}\n")
    assert load_model(tmp_path).config == model.config
    cfg_file.write_text(f"{saved}{key} = {other}\n")
    with pytest.raises(ConfigError, match=f"^{key} was removed; a saved model can only hold {key} = {kept}$"):
        load_model(tmp_path)


RETIRED_FLOATS = {
    "theta_act": "0.1",
    "topology_mix": "0.3",
    "init_sigma_cells": "1.5",
    "excit_fraction": "0.7",
    "population_factor": "1.0",
    "kernel_pitches": "1.5",
    "inhib_pitches": "3.0",
    "inhibition_gain": "1.0",
}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", RETIRED_FLOATS)
def test_a_retired_float_key_refuses_nan_and_infinities(tmp_path, key, bad):
    # these were float fields that rejected non-finite values; a saved
    # config.cfg holding one is still refused, and the error names the key
    save_model(zero_model(9, grid=(3, 3)), tmp_path)
    cfg_file = tmp_path / "config.cfg"
    cfg_file.write_text(f"{cfg_file.read_text()}{key} = {bad}\n")
    kept = RETIRED_FLOATS[key]
    with pytest.raises(ConfigError, match=f"^{key} was removed; a saved model can only hold {key} = {kept}$"):
        load_model(tmp_path)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_experiment_dispatch_guards():
    with pytest.raises(ConfigError):
        run_experiment(small_config(), "mystery")
    with pytest.raises(ParameterError):
        run_experiment(small_config(), "denoise", seeds=[])


def test_denoise_fills_in_a_minimum_template_count():
    report = run_experiment(small_config(pattern_count=1), "denoise", seeds=[0])
    assert report.name == "denoise"
    assert len(report.rows) == 3
    for key in ("median_improvement", "mean_improvement", "fraction_improved", "seeds"):
        assert key in report.metrics
    assert report.metrics["seeds"] == 1


def test_evolve1d_runs_once_whatever_the_seeds():
    # the hand-wired ring draws nothing at random, so extra seeds add nothing
    once = run_experiment(TrainerConfig(n=25), "evolve1d", seeds=[0])
    thrice = run_experiment(TrainerConfig(n=25), "evolve1d", seeds=[0, 1, 2])
    assert thrice.metrics == once.metrics and "seeds" not in once.metrics
    assert thrice.rows == once.rows and len(once.rows) == 25


def test_evolve1d_artifacts_are_readable(tmp_path):
    report = run_experiment(TrainerConfig(n=25), "evolve1d", out_dir=tmp_path, seeds=[0])
    for name in (
        "w_matrix_initial.csv",
        "w_matrix_final.csv",
        "w_matrix_initial.pgm",
        "w_matrix_final.pgm",
        "weight_row_12.csv",
        "trace.csv",
        "report.txt",
        "metrics.csv",
    ):
        assert (tmp_path / name).exists()
    w_final = load_matrix_csv(tmp_path / "w_matrix_final.csv")
    assert w_final.shape == (25, 25)
    idx = np.arange(25)
    nearest = np.concatenate([w_final[idx, (idx + 1) % 25], w_final[idx, (idx - 1) % 25]])
    assert abs(float(nearest.mean()) - report.metrics["nearest_mean"]) <= 1e-15
    row_lines = (tmp_path / "weight_row_12.csv").read_text().splitlines()
    assert row_lines[0] == "j,initial,final"
    assert len(row_lines) == 26
    j, _, final = row_lines[13].split(",")
    assert int(j) == 12 and float(final) == w_final[12, 12]
    assert (tmp_path / "report.txt").read_text().startswith("experiment = evolve1d")
    header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
    assert header == "i,nearest,third,row_sum,converged_fraction"
    load_image(tmp_path / "w_matrix_final.pgm")


def test_fused_cue_lands_between_its_parents():
    # full default demo at its intended size; the slowest check in the
    # file by a wide margin
    cfg = TrainerConfig(n=100, grid=(10, 10), use_firefly=True, master_seed=0)
    report = run_experiment(cfg, "fused", seeds=range(20))
    assert report.metrics["gap_target"] == 0.15
    assert report.metrics["median_gap"] <= report.metrics["gap_target"]


def test_digit_glyphs_are_binary_and_distinct():
    zero = digit_template("0")
    one = digit_template("1")
    assert zero.grid == (11, 11) and one.grid == (11, 11)
    assert zero.label == "0" and one.label == "1"
    for glyph in (zero, one):
        assert set(np.unique(glyph.values)) <= {0.0, 1.0}
        assert glyph.values.sum() > 0
    assert cosine(zero, one) < 0.5
    with pytest.raises(ParameterError):
        digit_template("7")


def test_report_save_writes_summary_and_table(tmp_path):
    report = ExperimentReport(
        name="toy", metrics={"alpha": 1.5, "count": 2}, rows=[{"s": 1, "value": 0.5}]
    )
    report.save(tmp_path)
    text = (tmp_path / "report.txt").read_text()
    assert "experiment = toy" in text and "alpha = 1.5" in text
    table = (tmp_path / "metrics.csv").read_text().splitlines()
    assert table[0] == "s,value"
    assert table[1] == "1,0.5"
