"""Swarm agents: attraction moves, spacing, and weight synthesis."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fireflynet import firefly
from fireflynet.errors import FormatError, ParameterError, ShapeMismatchError
from fireflynet.firefly import (
    MAX_SETTLE_SWEEPS,
    SETTLE_EPS,
    SETTLE_OVERSHOOT,
    FireflyPopulation,
    GridLayout,
    SwarmParams,
    enforce_min_distance,
    load_population_csv,
    save_population_csv,
    swarm_step,
    synthesize_weights,
)
from fireflynet.dynamics import WeightMatrix
from fireflynet.patterns import Pattern

from fireflynet.trainer import digit_template
from oracles import (
    nearest_index,
    pair_distances,
    same_bits,
    settle_loops,
    swarm_moves_reference,
    synthesize_weights_reference,
)


def still_params(**kw) -> SwarmParams:
    base = dict(eta=0.0, d_min=0.0)
    base.update(kw)
    return SwarmParams(**base)


def manual_population(positions, excitatory, params, seed=0) -> FireflyPopulation:
    pos = np.asarray(positions, dtype=float)
    return FireflyPopulation(
        positions=pos,
        excitatory=np.asarray(excitatory, dtype=bool),
        brightness=np.zeros(len(pos)),
        params=params,
        rng=np.random.default_rng(seed),
    )


# ---------------------------------------------------------------------------
# attraction and single moves: one dim agent in cell 0 of a 1x2 line, one
# bright agent in cell 1, so only the dim one moves, once
# ---------------------------------------------------------------------------

def move_toward_bright(start, target, params, seed=0) -> tuple[float, float]:
    pop = manual_population([start, target], [True, True], params, seed=seed)
    swarm_step(pop, Pattern(np.array([0.0, 1.0]), grid=(1, 2)), GridLayout(1, 2))
    assert tuple(pop.positions[1]) == tuple(target)
    return tuple(pop.positions[0])


def test_brightness_decays_monotonically():
    # the share of the separation a move covers is b * exp(-gamma * r^2)
    rs = np.linspace(0.46, 0.9, 12)
    params = still_params(gamma=2.5)
    shares = [
        (move_toward_bright((0.95 - r, 0.5), (0.95, 0.5), params)[0] - (0.95 - r)) / r for r in rs
    ]
    assert all(a > b for a, b in zip(shares, shares[1:]))


def test_brightness_rejects_bad_shape_parameters():
    for bad in (dict(b=0.0), dict(gamma=0.0)):
        with pytest.raises(ParameterError):
            SwarmParams(**bad)


def test_move_with_flat_falloff_lands_on_target():
    # gamma ~ 0 and b = 1 make the pull carry the whole separation
    got = move_toward_bright((0.0, 0.5), (1.0, 0.5), still_params(b=1.0, gamma=1e-12))
    assert abs(got[0] - 1.0) <= 1e-9 and got[1] == 0.5


def test_move_matches_closed_form():
    got = move_toward_bright((0.0, 0.5), (1.0, 0.5), still_params(b=0.5, gamma=1.0))
    assert got == (0.5 * math.exp(-1.0), 0.5)
    assert abs(got[0] - 0.5 * 0.36788) <= 1e-5


def test_move_clips_to_unit_square():
    got = move_toward_bright((0.2, 0.5), (1.0, 1.0), still_params(b=50.0, gamma=0.001))
    assert got == (1.0, 1.0)


def test_move_jitter_is_reproducible():
    params = SwarmParams(eta=0.2, d_min=0.0)
    a = move_toward_bright((0.3, 0.3), (0.7, 0.7), params, seed=11)
    b = move_toward_bright((0.3, 0.3), (0.7, 0.7), params, seed=11)
    assert a == b
    c = move_toward_bright((0.3, 0.3), (0.7, 0.7), params, seed=12)
    assert a != c


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------

def test_layout_cell_positions_square_two_by_two():
    got = GridLayout(2, 2).cell_positions()
    want = np.array([[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]])
    assert np.array_equal(got, want)


def test_layout_pitch_follows_finer_axis():
    assert GridLayout(3, 4).pitch == 0.25
    assert GridLayout(5, 2).pitch == 0.2


def test_layout_positions_stay_inside_unit_square():
    pos = GridLayout(7, 3).cell_positions()
    assert pos.shape == (21, 2)
    assert np.all(pos > 0.0) and np.all(pos < 1.0)


def test_layout_nearest_cell_is_row_major():
    layout = GridLayout(2, 2)
    assert layout.nearest_cell(np.array([[0.9, 0.1]]))[0] == 1
    assert layout.nearest_cell(np.array([[0.1, 0.9]]))[0] == 2


def test_layout_nearest_cell_agrees_with_scan():
    layout = GridLayout(3, 4)
    centers = [tuple(c) for c in layout.cell_positions()]
    pts = np.random.default_rng(5).random((200, 2))
    got = layout.nearest_cell(pts)
    for k, p in enumerate(pts):
        assert got[k] == nearest_index(tuple(p), centers)


def test_layout_cell_distances_are_in_cells():
    line = GridLayout(1, 5)
    assert np.array_equal(line.cell_distance_sq()[0], [0.0, 1.0, 4.0, 9.0, 16.0])
    grid = GridLayout(3, 4)
    # cell 0 is (row 0, col 0) and cell 11 is (row 2, col 3)
    assert grid.cell_distance_sq()[0, 11] == 4.0 + 9.0


def test_layout_rejects_degenerate_sides():
    with pytest.raises(ParameterError):
        GridLayout(0, 3)


# ---------------------------------------------------------------------------
# population bookkeeping
# ---------------------------------------------------------------------------

def test_spawn_polarity_split_and_ranges():
    pop = FireflyPopulation.spawn(10, SwarmParams(excit_fraction=0.7), rng=np.random.default_rng(3))
    assert len(pop) == 10
    assert pop.n_excitatory == 7
    assert np.all(pop.excitatory[:7]) and not np.any(pop.excitatory[7:])
    assert pop.positions.shape == (10, 2)
    assert np.all(pop.positions >= 0.0) and np.all(pop.positions <= 1.0)
    assert np.array_equal(pop.brightness, np.zeros(10))


def test_spawn_rejects_empty_population():
    with pytest.raises(ParameterError):
        FireflyPopulation.spawn(0, SwarmParams(), rng=np.random.default_rng(0))


def test_swarm_params_reject_bad_values():
    for bad in (
        dict(b=0.0),
        dict(gamma=-1.0),
        dict(eta=-0.01),
        dict(d_min=-0.1),
        dict(steps=-1),
        dict(excit_fraction=1.2),
        dict(population_factor=0.0),
        dict(kernel_pitches=0.0),
        dict(inhib_pitches=-2.0),
        dict(inhibition_gain=-0.5),
    ):
        with pytest.raises(ParameterError):
            SwarmParams(**bad)


# ---------------------------------------------------------------------------
# swarm step
# ---------------------------------------------------------------------------

def test_step_with_flat_activity_moves_nobody():
    layout = GridLayout(3, 3)
    pop = FireflyPopulation.spawn(15, still_params(), rng=np.random.default_rng(6))
    before = pop.positions.copy()
    swarm_step(pop, Pattern(np.zeros(9), grid=(3, 3)), layout)
    assert np.array_equal(pop.positions, before)


def test_step_refreshes_brightness_from_nearest_cell():
    layout = GridLayout(3, 3)
    activity = Pattern(np.arange(9, dtype=float) / 10.0, grid=(3, 3))
    pop = FireflyPopulation.spawn(20, SwarmParams(d_min=0.0), rng=np.random.default_rng(7))
    expected = activity.values[layout.nearest_cell(pop.positions)]
    swarm_step(pop, activity, layout)
    assert np.array_equal(pop.brightness, expected)


def test_step_leaves_the_brightest_agent_alone():
    layout = GridLayout(3, 3)
    hot = np.zeros(9)
    hot[4] = 1.0
    pop = manual_population(
        [[0.5, 0.5], [0.05, 0.05], [0.95, 0.05], [0.05, 0.95], [0.95, 0.95]],
        [True] * 5,
        still_params(),
    )
    swarm_step(pop, Pattern(hot, grid=(3, 3)), layout)
    assert tuple(pop.positions[0]) == (0.5, 0.5)
    # everyone else was pulled toward the center
    for k in range(1, 5):
        assert np.linalg.norm(pop.positions[k] - 0.5) < np.linalg.norm(
            np.array([0.05, 0.05]) - 0.5
        ) + 1e-12


def test_step_conserves_counts_and_polarity():
    layout = GridLayout(4, 4)
    pop = FireflyPopulation.spawn(24, SwarmParams(), rng=np.random.default_rng(8))
    polarity = pop.excitatory.copy()
    swarm_step(pop, Pattern(np.random.default_rng(0).random(16), grid=(4, 4)), layout)
    assert len(pop) == 24
    assert np.array_equal(pop.excitatory, polarity)
    assert np.all(pop.positions >= 0.0) and np.all(pop.positions <= 1.0)


def test_step_respects_spacing_floor():
    layout = GridLayout(3, 3)
    pop = manual_population(
        [[0.5, 0.5], [0.5, 0.52]], [True, True], SwarmParams(d_min=0.1, eta=0.0)
    )
    swarm_step(pop, Pattern(np.zeros(9), grid=(3, 3)), layout)
    gap = float(np.linalg.norm(pop.positions[0] - pop.positions[1]))
    assert gap >= 0.1 - 1e-9
    assert pop.settle_converged


def test_step_is_deterministic_under_jitter():
    layout = GridLayout(3, 3)
    activity = Pattern(np.arange(9, dtype=float), grid=(3, 3))
    runs = []
    for _ in range(2):
        pop = FireflyPopulation.spawn(18, SwarmParams(eta=0.05), rng=np.random.default_rng(9))
        for _ in range(3):
            swarm_step(pop, activity, layout)
        runs.append(pop.positions.copy())
    assert np.array_equal(runs[0], runs[1])


def test_step_rejects_mismatched_activity():
    layout = GridLayout(3, 3)
    pop = FireflyPopulation.spawn(5, SwarmParams(), rng=np.random.default_rng(1))
    with pytest.raises(ShapeMismatchError):
        swarm_step(pop, Pattern(np.zeros(8)), layout)


def test_step_pulls_dim_agent_toward_bright_one():
    layout = GridLayout(1, 3)
    hot = Pattern(np.array([0.0, 0.0, 1.0]), grid=(1, 3))
    pop = manual_population([[0.1, 0.5], [0.9, 0.5]], [True, True], still_params())
    before = abs(pop.positions[0, 0] - 0.9)
    swarm_step(pop, hot, layout)
    assert abs(pop.positions[0, 0] - 0.9) < before
    assert tuple(pop.positions[1]) == (0.9, 0.5)


def check_moves_against_the_all_pairs_loop(points, activity, layout, params, seed):
    pop = manual_population(points, [True] * len(points), params, seed=seed)
    swarm_step(pop, activity, layout)
    ref_rng = np.random.default_rng(seed)
    bright = activity.values[layout.nearest_cell(points)].tolist()
    expected = np.asarray(
        swarm_moves_reference(points, bright, params.b, params.gamma, params.eta, ref_rng)
    )
    assert np.array_equal(pop.positions, expected)
    assert np.array_equal(np.signbit(pop.positions), np.signbit(expected))
    # the same jitter block left both generators in step
    assert pop.rng.random() == ref_rng.random()


@pytest.mark.parametrize("eta", [0.0, 0.05])
def test_moves_on_a_digit_match_the_all_pairs_loop_bit_for_bit(eta):
    points = np.random.default_rng(31).random((121, 2))
    points[:6, 0] = 0.0  # on the left wall
    points[6:9] = (1.0, 1.0)  # in a corner
    glyph = digit_template("0")
    params = SwarmParams(eta=eta, d_min=0.0)
    check_moves_against_the_all_pairs_loop(points, glyph, GridLayout(*glyph.grid), params, 4)


@st.composite
def move_inputs(draw):
    """Agents over a small grid whose cells share a few activity levels, so
    brightness ties within and across levels; some agents sit on a wall or
    in a corner, and the jitter is off or on."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    count = draw(st.integers(1, 24))
    coordinate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    points = draw(arrays(np.float64, (count, 2), elements=coordinate))
    levels = st.sampled_from(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)))
    activity = Pattern(draw(arrays(np.float64, rows * cols, elements=levels)), grid=(rows, cols))
    params = SwarmParams(
        b=draw(st.floats(0.1, 2.0)),
        gamma=draw(st.floats(0.1, 10.0)),
        eta=draw(st.one_of(st.just(0.0), st.floats(0.001, 0.5))),
        d_min=0.0,
    )
    return points, activity, GridLayout(rows, cols), params, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=80)
@given(move_inputs())
def test_moves_match_the_all_pairs_loop_for_generated_swarms(inputs):
    check_moves_against_the_all_pairs_loop(*inputs)


def test_a_strided_activity_moves_the_swarm_as_its_contiguous_copy():
    # the kernel reads the activity by address, so a view of every other
    # entry must reach it as the entries, not as the memory they sit in
    big = np.random.default_rng(3).random(50)
    runs = []
    for values in (big[::2], big[::2].copy()):
        pop = FireflyPopulation.spawn(25, SwarmParams(), rng=np.random.default_rng(4))
        swarm_step(pop, Pattern(values, grid=(5, 5)), GridLayout(5, 5))
        runs.append((pop.positions.tobytes(), pop.brightness.tobytes()))
    assert runs[0] == runs[1]


def test_a_read_only_activity_moves_the_swarm_as_its_writable_copy():
    # address reaches a read-only array's data through .ctypes.data, not from_buffer
    values = np.random.default_rng(3).random(25)
    values.flags.writeable = False
    read_only, writable = Pattern(values, grid=(5, 5)), Pattern(values.copy(), grid=(5, 5))
    assert not read_only.values.flags.writeable and writable.values.flags.writeable
    runs = []
    for activity in (read_only, writable):
        pop = FireflyPopulation.spawn(25, SwarmParams(), rng=np.random.default_rng(4))
        swarm_step(pop, activity, GridLayout(5, 5))
        runs.append((pop.positions.tobytes(), pop.brightness.tobytes(), pop.rng.bit_generator.state))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("rows, cols", [(3, 5), (5, 3), (1, 4), (4, 1)])
def test_brightness_on_cell_borders_and_walls_is_the_nearest_cell_bit_for_bit(rows, cols):
    # agents on x = k/cols and y = k/rows exactly, one float either side of
    # them, and on the walls; every cell has its own activity, so a swapped
    # rows/cols picks other values
    def borders(side):
        exact = np.arange(side + 1) / side
        return np.clip(np.concatenate([np.nextafter(exact, -1.0), exact, np.nextafter(exact, 2.0)]), 0.0, 1.0)

    points = np.array([(x, y) for x in borders(cols) for y in borders(rows)])
    layout = GridLayout(rows, cols)
    activity = Pattern(np.arange(1.0, layout.n + 1.0), grid=(rows, cols))
    expected = activity.values[layout.nearest_cell(points)]
    pop = manual_population(points, [True] * len(points), still_params())
    swarm_step(pop, activity, layout)
    assert pop.brightness.tobytes() == expected.tobytes()


@st.composite
def step_inputs(draw):
    """Agents on a wall or inside a cell of a small grid, clear of the cell
    borders, where the scan and the floor may pick different cells.  Agents
    0 and 1 share the centre of the brightest cell: nothing is brighter, so
    they stay put and the settle draws a direction after the jitter."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def coordinate(side):
        inside = st.tuples(st.integers(0, side - 1), st.floats(0.05, 0.95)).map(lambda c: (c[0] + c[1]) / side)
        return st.one_of(st.sampled_from([0.0, 1.0]), inside)

    count = draw(st.integers(2, 16))
    points = np.array([(draw(coordinate(cols)), draw(coordinate(rows))) for _ in range(count)])
    levels = st.sampled_from(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)))
    activity = Pattern(draw(arrays(np.float64, rows * cols, elements=levels)), grid=(rows, cols))
    hot_row, hot_col = divmod(int(np.argmax(activity.values)), cols)
    points[0] = points[1] = ((hot_col + 0.5) / cols, (hot_row + 0.5) / rows)
    params = SwarmParams(
        b=draw(st.floats(0.1, 2.0)),
        gamma=draw(st.floats(0.1, 10.0)),
        eta=draw(st.one_of(st.just(0.0), st.floats(0.001, 0.5))),
        d_min=draw(st.floats(0.01, 0.3)),
    )
    return points, activity, GridLayout(rows, cols), params, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=60)
@given(step_inputs())
def test_a_step_matches_the_scan_the_move_loop_and_the_settle_loop_bit_for_bit(inputs):
    points, activity, layout, params, seed = inputs
    pop = manual_population(points, [True] * len(points), params, seed=seed)
    swarm_step(pop, activity, layout)
    ref_rng = np.random.default_rng(seed)
    centers = [tuple(c) for c in layout.cell_positions()]
    bright = [float(activity.values[nearest_index(p, centers)]) for p in points]
    moved = swarm_moves_reference(points, bright, params.b, params.gamma, params.eta, ref_rng)
    expected, converged = settle_loops(
        moved, params.d_min, ref_rng, MAX_SETTLE_SWEEPS, SETTLE_EPS, SETTLE_OVERSHOOT
    )
    assert pop.brightness.tobytes() == np.asarray(bright).tobytes()
    assert pop.positions.tobytes() == np.asarray(expected).tobytes()
    assert pop.settle_converged == converged
    # the jitter and the direction draws left both generators in step
    assert pop.rng.random() == ref_rng.random()


# ---------------------------------------------------------------------------
# spacing
# ---------------------------------------------------------------------------

def test_spacing_leaves_well_spread_agents_alone():
    pop = manual_population(
        [[0.1, 0.1], [0.9, 0.1], [0.5, 0.9]], [True] * 3, SwarmParams(d_min=0.05)
    )
    before = pop.positions.copy()
    enforce_min_distance(pop)
    assert np.array_equal(pop.positions, before)
    assert pop.settle_converged


def test_spacing_splits_coincident_pair():
    pop = manual_population(
        [[0.5, 0.5], [0.5, 0.5]], [True, True], SwarmParams(d_min=0.1), seed=2
    )
    enforce_min_distance(pop)
    gap = float(np.linalg.norm(pop.positions[0] - pop.positions[1]))
    assert gap >= 0.1 - 1e-9
    assert pop.settle_converged
    # one sweep splits the pair along libm's cos and sin of 2 pi times one
    # draw, half of 1.05 d_min to each side; the next finds it apart
    ref_rng = np.random.default_rng(2)
    angle = 2.0 * math.pi * ref_rng.random()
    half = (SETTLE_OVERSHOOT * 0.1 - 0.0) * 0.5
    px, py = math.cos(angle) * half, math.sin(angle) * half
    assert pop.positions.tolist() == [[0.5 - px, 0.5 - py], [0.5 + px, 0.5 + py]]
    assert pop.rng.random() == ref_rng.random()


def test_spacing_resolves_a_crowd():
    rng = np.random.default_rng(14)
    pop = manual_population(rng.random((30, 2)), [True] * 30, SwarmParams(d_min=0.05), seed=3)
    enforce_min_distance(pop)
    dists = pair_distances([tuple(p) for p in pop.positions])
    assert len(dists) == 435
    assert min(dists) >= 0.05 - 1e-8
    assert np.all(pop.positions >= 0.0) and np.all(pop.positions <= 1.0)


def crowd_with_coincident_and_wall_agents() -> np.ndarray:
    rng = np.random.default_rng(21)
    crowd = 0.2 * rng.random((30, 2))
    crowd[5] = crowd[6] = crowd[7] = crowd[4]  # a coincident quadruple
    crowd[10:13, 0] = 0.0  # pinned at the left wall
    crowd[13] = crowd[14] = (0.0, 0.0)  # coincident in the corner
    return crowd


@pytest.mark.parametrize(
    "points, d_min, converges",
    [
        (crowd_with_coincident_and_wall_agents(), 0.05, True),
        # too many agents for the square at this spacing: runs out of sweeps
        (np.random.default_rng(5).random((60, 2)), 0.2, False),
        # both ends pushed into opposite walls: clipping cancels the sweep
        ([[0.0, 0.5], [1.0, 0.5]], 1.5, False),
    ],
    ids=["crowd", "overfull", "wall-deadlock"],
)
def test_spacing_matches_the_pair_loop_oracle_bit_for_bit(points, d_min, converges):
    pop = manual_population(points, [True] * len(points), SwarmParams(d_min=d_min), seed=8)
    ref_rng = np.random.default_rng(8)
    expected, expected_converged = settle_loops(
        points, d_min, ref_rng, MAX_SETTLE_SWEEPS, SETTLE_EPS, SETTLE_OVERSHOOT
    )
    enforce_min_distance(pop)
    assert np.array_equal(pop.positions, np.asarray(expected))
    assert pop.settle_converged == expected_converged == converges
    # the same number of direction draws left both generators in step
    assert pop.rng.random() == ref_rng.random()


def settle_against_the_pair_loop_oracle(points, d_min):
    pop = manual_population(points, [True] * len(points), SwarmParams(d_min=d_min), seed=8)
    ref_rng = np.random.default_rng(8)
    expected, expected_converged = settle_loops(
        points, d_min, ref_rng, MAX_SETTLE_SWEEPS, SETTLE_EPS, SETTLE_OVERSHOOT
    )
    enforce_min_distance(pop)
    assert np.array_equal(pop.positions, np.asarray(expected))
    assert pop.settle_converged == expected_converged
    assert pop.rng.random() == ref_rng.random()
    return pop


def test_spacing_of_a_collapsed_swarm_matches_the_oracle_across_list_rebuilds():
    # 121 agents piled onto four points, one of them on the left wall
    spots = np.array([[0.3, 0.3], [0.7, 0.35], [0.5, 0.8], [0.0, 0.6]])
    points = spots[np.arange(121) % 4]
    pop = settle_against_the_pair_loop_oracle(points, 0.05)
    # agents drifted well past d_min from where they started
    drift = np.sqrt(((pop.positions - points) ** 2).sum(axis=1))
    assert drift.max() > 2.0 * 0.05


def clustered_crowd(seed: int) -> tuple[np.ndarray, float]:
    """3-39 agents drawn around 1-3 centres with a spread of 0.005-0.08,
    clipped to the unit square, and a spacing d_min of 0.02-0.2."""
    rng = np.random.default_rng(seed)
    centres = rng.random((int(rng.integers(1, 4)), 2))
    count = int(rng.integers(3, 40))
    sigma = rng.uniform(0.005, 0.08)
    picks = rng.integers(len(centres), size=count)
    points = np.clip(centres[picks] + sigma * rng.standard_normal((count, 2)), 0.0, 1.0)
    return points, float(rng.uniform(0.02, 0.2))


@pytest.mark.parametrize("seed", [0, 31, 51, 691])
def test_spacing_of_clustered_crowds_matches_the_oracle_across_list_rebuilds(seed):
    # a cluster bursting apart moves agents far within one settle; these
    # crowds caught an earlier neighbour-list settle losing violating pairs
    settle_against_the_pair_loop_oracle(*clustered_crowd(seed))


def test_spacing_of_an_overfull_swarm_matches_the_oracle_up_to_the_sweep_cap():
    points = np.random.default_rng(11).random((121, 2))
    pop = settle_against_the_pair_loop_oracle(points, 0.12)
    assert not pop.settle_converged
    # not a wall deadlock: one more settle still moves agents, so the call
    # ran out of sweeps
    before = pop.positions.copy()
    enforce_min_distance(pop)
    assert np.abs(pop.positions - before).max() > 1e-3


def test_spacing_draws_a_direction_in_the_sweep_in_which_a_pair_first_touches():
    # the first sweep clips agents 0 and 4 into the same corner, so the
    # second draws one direction for them, in pair order among its pushes;
    # the settle then runs to the sweep cap, where one sweep more or less shows
    points = np.array([[0.01, 0.011], [0.011, 0.03], [0.019, 0.02], [0.01, 0.02], [0.004, 0.002]])
    assert min(pair_distances(points)) > 1e-3
    first, _ = settle_loops(points, 0.5, np.random.default_rng(8), 1, SETTLE_EPS, SETTLE_OVERSHOOT)
    assert first[0] == first[4] == (0.0, 0.0)
    pop = settle_against_the_pair_loop_oracle(points, 0.5)
    assert not pop.settle_converged
    short, _ = settle_loops(points, 0.5, np.random.default_rng(8), MAX_SETTLE_SWEEPS - 1, SETTLE_EPS, SETTLE_OVERSHOOT)
    assert not np.array_equal(pop.positions, np.asarray(short))


@st.composite
def settle_inputs(draw):
    """A crowd in the unit square, some agents on a wall or in a corner and
    some sharing a position, with a spacing that may not fit them all."""
    count = draw(st.integers(2, 16))
    coordinate = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
    points = draw(arrays(np.float64, (count, 2), elements=coordinate))
    for k in range(draw(st.integers(0, count - 1))):  # copy agents onto others
        points[draw(st.integers(0, count - 1))] = points[draw(st.integers(0, count - 1))]
    return points, draw(st.floats(0.01, 0.6)), draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=60)
@given(settle_inputs())
def test_spacing_matches_the_pair_loop_oracle_for_generated_populations(inputs):
    points, d_min, seed = inputs
    pop = manual_population(points, [True] * len(points), SwarmParams(d_min=d_min), seed=seed)
    ref_rng = np.random.default_rng(seed)
    expected, expected_converged = settle_loops(
        points, d_min, ref_rng, MAX_SETTLE_SWEEPS, SETTLE_EPS, SETTLE_OVERSHOOT
    )
    enforce_min_distance(pop)
    assert np.array_equal(pop.positions, np.asarray(expected))
    assert pop.settle_converged == expected_converged
    assert pop.rng.random() == ref_rng.random()


@settings(deadline=None, max_examples=30)
@given(
    st.integers(2, 40),
    st.tuples(*[st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))] * 2),
    st.floats(0.01, 0.2),
    st.integers(0, 2**32 - 1),
)
def test_a_swarm_piled_on_one_point_settles_as_the_pair_loop(count, point, d_min, seed):
    # every pair of the first sweep is a candidate that touches, so each draws a direction
    points = np.array([point] * count)
    first_sweep, skipped = np.random.default_rng(seed), np.random.default_rng(seed)
    settle_loops(points, d_min, first_sweep, 1, SETTLE_EPS, SETTLE_OVERSHOOT)
    skipped.random(count * (count - 1) // 2)
    assert first_sweep.bit_generator.state == skipped.bit_generator.state
    pop = manual_population(points, [True] * count, SwarmParams(d_min=d_min), seed=seed)
    ref_rng = np.random.default_rng(seed)
    expected, converged = settle_loops(points, d_min, ref_rng, MAX_SETTLE_SWEEPS, SETTLE_EPS, SETTLE_OVERSHOOT)
    enforce_min_distance(pop)
    assert pop.positions.tobytes() == np.asarray(expected).tobytes()
    assert pop.settle_converged == converged
    assert pop.rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("d_min", [0.05, 0.3, 0.7])
def test_pairs_within_two_ulps_of_the_spacing_bound_settle_as_in_the_pair_loop(d_min):
    # the settle skips far pairs on their squared distance before the sqrt;
    # that must change no decision at the bound d_min - SETTLE_EPS itself
    bound = d_min - SETTLE_EPS
    gaps = [bound]
    for _ in range(2):
        gaps = [np.nextafter(gaps[0], 0.0), *gaps, np.nextafter(gaps[-1], 1.0)]
    for gap in gaps:
        along_x = np.array([[0.0, 0.0], [gap, 0.0]])
        pop = settle_against_the_pair_loop_oracle(along_x, d_min)
        # sqrt(gap * gap) is gap, so the pair is pushed exactly below the bound
        assert (not np.array_equal(pop.positions, along_x)) == (gap < bound)
        for points in ([[0.0, 0.0], [0.6 * gap, 0.8 * gap]], [[0.2, 0.25], [0.2 + gap, 0.25]]):
            settle_against_the_pair_loop_oracle(np.array(points), d_min)


@pytest.mark.parametrize("shape", [(3,), (3, 1), (3, 3)])
def test_swarm_rejects_positions_that_are_not_xy_rows(shape):
    # the kernel reads positions as (x, y) pairs by address
    pop = manual_population(np.full(shape, 0.5), [True] * 3, SwarmParams(d_min=0.1))
    with pytest.raises(ShapeMismatchError):
        enforce_min_distance(pop)
    with pytest.raises(ShapeMismatchError):
        swarm_step(pop, Pattern(np.arange(4.0), grid=(2, 2)), GridLayout(2, 2))


OFF_SQUARE = [
    (math.inf, 0.2), (math.nan, 0.7), (0.4, -math.inf), (np.nextafter(1.0, 2.0), 0.5), (0.5, -1e-300),
    (0.3, np.nextafter(1.0, 2.0)),
]


@pytest.mark.parametrize("bad", OFF_SQUARE)
@pytest.mark.parametrize("call", ["swarm_step", "enforce_min_distance"])
@pytest.mark.parametrize("d_min, alone", [(0.1, False), (0.0, False), (0.1, True)], ids=["crowd", "no-spacing", "alone"])
def test_swarm_rejects_an_agent_off_the_unit_square_and_leaves_the_population_as_it_was(bad, call, d_min, alone):
    # in the crowd agents 0 and 1 coincide, so the settle's pair loop would
    # draw a direction for them before it came to agent 2; the move pass
    # would draw jitter for agent 0 first
    points, k = ([bad], 0) if alone else ([[0.5, 0.5], [0.5, 0.5], bad, [0.2, 0.2]], 2)
    pop = manual_population(points, [True] * len(points), SwarmParams(d_min=d_min, eta=0.05), seed=4)
    positions, brightness, state = pop.positions, pop.brightness, pop.rng.bit_generator.state
    before = positions.tobytes()
    with pytest.raises(ParameterError, match=rf"swarm agent {k} at \[.+\] is off the unit square or not finite"):
        if call == "swarm_step":
            swarm_step(pop, Pattern(np.arange(4.0), grid=(2, 2)), GridLayout(2, 2))
        else:
            enforce_min_distance(pop)
    assert pop.positions is positions and pop.positions.tobytes() == before
    assert pop.brightness is brightness and not brightness.any()
    assert pop.rng.bit_generator.state == state


@pytest.mark.parametrize(
    "points, d_min", [([[0.5, 0.5], [0.5, 0.5]], 0.0), ([[0.5, 0.5]], 0.1)], ids=["no-spacing", "alone"]
)
def test_a_settle_with_no_pair_to_push_converges_and_changes_nothing(points, d_min):
    pop = manual_population(points, [True] * len(points), SwarmParams(d_min=d_min), seed=4)
    before, state = pop.positions.copy(), pop.rng.bit_generator.state
    pop.settle_converged = False
    enforce_min_distance(pop)
    assert np.array_equal(pop.positions, before)
    assert pop.rng.bit_generator.state == state
    assert pop.settle_converged


def test_a_settle_the_kernel_cannot_allocate_for_raises_memory_error(monkeypatch):
    class NoMemory:
        @staticmethod
        def swarm_settle(*args):
            return 2

    pop = manual_population([[0.5, 0.5], [0.5, 0.5], [0.2, 0.7]], [True] * 3, SwarmParams())
    positions, before = pop.positions, pop.positions.tobytes()
    monkeypatch.setattr(firefly, "load_kernel", NoMemory)
    with pytest.raises(MemoryError, match="^no memory for the spacing settle of 3 agents$"):
        enforce_min_distance(pop)
    assert pop.positions is positions and pop.positions.tobytes() == before
    assert pop.settle_converged is True


# ---------------------------------------------------------------------------
# weight synthesis
# ---------------------------------------------------------------------------

def test_synthesis_from_pure_excitation_is_nonnegative_with_unit_rows():
    params = SwarmParams(excit_fraction=1.0, d_min=0.0)
    pop = FireflyPopulation.spawn(200, params, rng=np.random.default_rng(21))
    layout = GridLayout(5, 5)
    wm = synthesize_weights(pop, layout, 0.5)
    assert np.all(wm.w >= 0.0)
    assert np.array_equal(np.diagonal(wm.w), np.zeros(25))
    assert np.all(wm.w <= 0.5)
    sums = wm.w.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) <= 1e-9)
    WeightMatrix(wm.w.copy())  # construction revalidates


def test_synthesis_concentrates_on_the_occupied_cell():
    layout = GridLayout(5, 5)
    pop = manual_population(
        np.full((12, 2), 0.5), [True] * 12, SwarmParams(d_min=0.0)
    )
    wm = synthesize_weights(pop, layout, 0.5)
    centers = layout.cell_positions()
    sigma = 1.5 * layout.pitch
    for i in range(25):
        if i == 12:
            assert np.array_equal(wm.w[i], np.zeros(25))
            continue
        assert int(wm.w[i].argmax()) == 12
        raw = 12.0 * math.exp(
            -((centers[i] - 0.5) ** 2).sum() / (2.0 * sigma * sigma)
        )
        want = min(raw / max(raw, 1.0), 0.5)
        assert abs(wm.w[i, 12] - want) <= 1e-12
        assert np.count_nonzero(wm.w[i]) == 1


def test_synthesis_inhibitory_agent_makes_a_negative_column():
    layout = GridLayout(5, 5)
    pop = manual_population(
        [[0.1, 0.1], [0.9, 0.9]], [True, False], SwarmParams(d_min=0.0)
    )
    wm = synthesize_weights(pop, layout, 0.5)
    col = wm.w[:, 24]
    assert col[24] == 0.0
    assert np.all(col[:24] < 0.0)
    assert np.all(wm.w >= -0.25)
    assert wm.w[24, 0] > 0.0


def test_synthesis_requires_an_excitatory_agent():
    pop = manual_population([[0.2, 0.2], [0.7, 0.7]], [False, False], SwarmParams())
    with pytest.raises(ParameterError):
        synthesize_weights(pop, GridLayout(5, 5), 0.5)


def test_synthesis_rejects_bad_caps():
    pop = FireflyPopulation.spawn(5, SwarmParams(), rng=np.random.default_rng(0))
    for v in (0.0, -1.0, math.nan, math.inf, -math.inf):
        message = f"^saturation ceiling v must be finite and > 0, got {re.escape(str(v))}$"
        with pytest.raises(ParameterError, match=message):
            synthesize_weights(pop, GridLayout(3, 3), v)


@pytest.mark.parametrize("bad", [*OFF_SQUARE, (1.5, 0.5)])
@pytest.mark.parametrize("k", [0, 2])
def test_synthesis_rejects_an_agent_off_the_unit_square_before_any_work(bad, k):
    # an agent after the bad one is off the square too: the first is named
    points = [[0.5, 0.5], [0.2, 0.2], [0.8, 0.1], [0.1, 0.9]]
    points[k], points[3] = bad, [-0.5, 0.5]
    pop = manual_population(points, [True] * 4, SwarmParams())
    before = pop.positions.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast of a non-finite coordinate to a cell
        with pytest.raises(ParameterError, match=rf"swarm agent {k} at \[.+\] is off the unit square or not finite"):
            synthesize_weights(pop, GridLayout(2, 2), 0.5)
    assert pop.positions.tobytes() == before


def coordinate(side: int):
    """A coordinate on a cell border (k / side), on a wall (signed zero or 1)
    or anywhere in [0, 1]."""
    return st.integers(0, side).map(lambda k: k / side) | st.sampled_from((0.0, -0.0, 1.0)) | st.floats(0.0, 1.0)


@st.composite
def synthesis_inputs(draw):
    """A population over a grid of up to 11x11 cells, or one of more than 128
    cells, where numpy's pairwise row sum splits; at least one agent
    excitatory; a zero inhibition gain and narrow kernels give signed zeros."""
    sides = st.tuples(st.integers(1, 11), st.integers(1, 11)) | st.sampled_from(((12, 12), (16, 9), (1, 130), (20, 15)))
    (rows, cols), count = draw(sides), draw(st.integers(1, 40))
    points = [(draw(coordinate(cols)), draw(coordinate(rows))) for _ in range(count)]
    excitatory = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    excitatory[draw(st.integers(0, count - 1))] = True
    params = SwarmParams(
        b=draw(st.floats(0.05, 3.0)),
        kernel_pitches=draw(st.floats(0.05, 4.0)),
        inhib_pitches=draw(st.floats(0.05, 6.0)),
        inhibition_gain=draw(st.just(0.0) | st.floats(0.0, 3.0)),
    )
    return manual_population(points, excitatory, params), GridLayout(rows, cols), draw(st.floats(0.01, 1.0))


@settings(deadline=None)
@given(synthesis_inputs())
def test_synthesis_returns_the_reference_bits(inputs):
    pop, layout, v = inputs
    wm = synthesize_weights(pop, layout, v)
    assert same_bits(wm.w, synthesize_weights_reference(pop, layout, v))
    assert not wm.w.flags.writeable


def test_synthesis_reads_the_positions_by_value_not_by_layout():
    rng = np.random.default_rng(6)
    points = rng.random((30, 2))
    excitatory = rng.random(30) < 0.7
    layout = GridLayout(4, 5)
    expected = synthesize_weights_reference(manual_population(points, excitatory, SwarmParams()), layout, 0.5)
    doubled = np.repeat(points, 2, axis=0)
    for positions in (np.asfortranarray(points), doubled[::2], np.ascontiguousarray(points.T).T):
        pop = manual_population(positions, excitatory, SwarmParams())
        assert same_bits(synthesize_weights(pop, layout, 0.5).w, expected)
        assert pop.positions is positions


# ---------------------------------------------------------------------------
# snapshot files
# ---------------------------------------------------------------------------

def test_population_file_round_trip(tmp_path):
    params = SwarmParams()
    pop = FireflyPopulation.spawn(20, params, rng=np.random.default_rng(30))
    pop.brightness = np.random.default_rng(1).random(20)
    path = tmp_path / "pop.csv"
    save_population_csv(pop, path)
    back = load_population_csv(path, params, np.random.default_rng(0))
    assert np.array_equal(back.positions, pop.positions)
    assert np.array_equal(back.excitatory, pop.excitatory)
    assert np.array_equal(back.brightness, pop.brightness)


@st.composite
def populations(draw):
    count = draw(st.integers(1, 20))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    unit = st.one_of(st.just(-0.0), st.floats(0.0, 1.0))
    return manual_population(
        draw(arrays(np.float64, (count, 2), elements=unit)),
        draw(arrays(np.bool_, count)),
        SwarmParams(),
    ), draw(arrays(np.float64, count, elements=finite))


@settings(max_examples=50, deadline=None)
@given(populations())
def test_population_file_round_trip_for_generated_populations(tmp_path_factory, case):
    pop, pop.brightness = case
    path = tmp_path_factory.mktemp("pop") / "pop.csv"
    save_population_csv(pop, path)
    back = load_population_csv(path, pop.params, np.random.default_rng(0))
    for name in ("positions", "excitatory", "brightness"):
        got, want = getattr(back, name), getattr(pop, name)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_population_file_rejects_damage(tmp_path):
    good = "x,y,polarity,brightness\n0.5,0.5,E,0\n"
    cases = {
        "header.csv": "a,b,c,d\n0.5,0.5,E,0\n",
        "fields.csv": "x,y,polarity,brightness\n0.5,0.5,E\n",
        "polarity.csv": "x,y,polarity,brightness\n0.5,0.5,X,0\n",
        "numeric.csv": "x,y,polarity,brightness\nfoo,0.5,E,0\n",
        "empty.csv": "x,y,polarity,brightness\n",
    }
    (tmp_path / "good.csv").write_text(good)
    load_population_csv(tmp_path / "good.csv", SwarmParams(), np.random.default_rng(0))
    for name, text in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(FormatError):
            load_population_csv(p, SwarmParams(), np.random.default_rng(0))


@pytest.mark.parametrize(
    "row",
    ["nan,7.5,E,inf", "0.5,0.5,E,nan", "0.5,0.5,I,-inf", "inf,0.5,E,0", "1.5,0.5,E,0", "0.5,-0.1,I,0"],
)
def test_population_file_rejects_agents_off_the_square_or_not_finite(tmp_path, row):
    path = tmp_path / "pop.csv"
    path.write_text(f"x,y,polarity,brightness\n0.5,0.5,E,0\n{row}\n")
    with pytest.raises(FormatError) as err:
        load_population_csv(path, SwarmParams(), np.random.default_rng(0))
    assert str(path) in str(err.value) and row in str(err.value)


def test_population_file_accepts_agents_on_the_edge_of_the_square(tmp_path):
    path = tmp_path / "pop.csv"
    path.write_text("x,y,polarity,brightness\n0,1,E,-3.5\n1.0,-0.0,I,1e300\n")
    pop = load_population_csv(path, SwarmParams(), np.random.default_rng(0))
    assert pop.positions.tolist() == [[0.0, 1.0], [1.0, 0.0]]
