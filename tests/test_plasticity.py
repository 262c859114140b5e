"""Competitive weight dynamics: growth rate and clamped Euler evolution."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fireflynet import plasticity
from fireflynet.dynamics import (
    WeightMatrix,
    correlation_tensor,
)
from fireflynet.errors import ParameterError, ShapeMismatchError
from fireflynet.kernel import load_kernel
from fireflynet.plasticity import (
    STEP_FRACTION,
    PlasticityParams,
    evolve_weights,
    haeussler_rhs,
    row_fixed_points,
)

from oracles import (
    evolve_reference,
    evolve_weights_reference,
    growth_rate_loops,
    rate_reference,
    row_fixed_points_reference,
    same_bits,
)


def uniform_weights(n: int) -> WeightMatrix:
    w = np.full((n, n), 1.0 / n)
    np.fill_diagonal(w, 0.0)
    return WeightMatrix(w)


def gram_tensor(n: int, seed: int, unit_rows: bool = False) -> np.ndarray:
    d = np.random.default_rng(seed).random((n, n))
    if unit_rows:
        d /= np.linalg.norm(d, axis=1, keepdims=True)
    return correlation_tensor(d, np.array(tuple(range(n)), dtype=int))


def zero_tensor(n: int):
    return correlation_tensor(np.eye(n), np.array((), dtype=int))


def clamping_case(
    n: int, seed: int, load: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Random start weights in [0, 0.5] with full rows, and a skewed Gram
    tensor scaled so that beta * max T = 100 * load.

    Rows summing far above 1 give cooperation sums that drive losing
    weights below 0 in one step, and each row's winner grows past 0.5.
    """
    rng = np.random.default_rng(seed)
    w = rng.random((n, n)) * 0.5
    np.fill_diagonal(w, 0.0)
    x = rng.random((n, 4)) ** 4
    t_mat = x @ x.T
    return w, t_mat * (load / (0.01 * beta * t_mat.max()))


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_validate_their_domains():
    with pytest.raises(ParameterError):
        PlasticityParams(alpha=-0.1)
    with pytest.raises(ParameterError):
        PlasticityParams(v=0.0)
    with pytest.raises(ParameterError):
        PlasticityParams(max_steps=0)
    with pytest.raises(ParameterError):
        PlasticityParams(tol=0.0)
    with pytest.raises(TypeError):  # the step is always derived; there is no fixed one to set
        PlasticityParams(dt=0.01)


def test_an_unset_dt_takes_its_share_of_the_stability_bound():
    t = gram_tensor(6, 2)
    params = PlasticityParams(alpha=0.05, beta=2.0)
    assert params.step(6, t) == STEP_FRACTION / (0.05 * 6 + 2.0 * float(np.abs(t).max()))
    # however large the tensor, the step stays inside the bound
    big = t * 1e9
    assert params.step(6, big) * (0.05 * 6 + 2.0 * float(big.max())) < 1.0
    # a rate that is identically zero, or below resolution, takes step 1
    assert PlasticityParams(alpha=0.0).step(6, zero_tensor(6)) == 1.0
    assert PlasticityParams(alpha=5e-324, beta=0.0).step(6, zero_tensor(6)) == 1.0


# ---------------------------------------------------------------------------
# growth rate
# ---------------------------------------------------------------------------

def test_rhs_first_term_vanishes_at_uniform_level():
    # beta = 0 and w = 1/n off-diagonal kill the decay term; n = 8 keeps
    # 1/n exactly representable so the zero is bitwise
    params = PlasticityParams(alpha=0.3, beta=0.0)
    f = haeussler_rhs(uniform_weights(8), gram_tensor(8, 0), params)
    assert np.array_equal(f, np.zeros((8, 8)))


def test_rhs_first_term_near_zero_at_uniform_level_inexact_n():
    # 1/6 is not exactly representable; the residue is rounding noise
    params = PlasticityParams(alpha=0.3, beta=0.0)
    f = haeussler_rhs(uniform_weights(6), gram_tensor(6, 0), params)
    assert np.abs(f).max() <= 1e-15


def test_rhs_cooperation_term_vanishes_for_constant_tensor_and_unit_rows():
    # alpha = 0, T constant, rows of W summing to one: each cooperation
    # sum equals the constant, so every rate cancels
    n = 9
    w = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(w, 0.0)
    tensor = np.full((n, n), 2.0)
    params = PlasticityParams(alpha=0.0, beta=1.0)
    f = haeussler_rhs(WeightMatrix(w), tensor, params)
    assert np.abs(f).max() <= 1e-12


def test_rhs_matches_triple_loop_reference():
    rng = np.random.default_rng(17)
    for n in (6, 25):
        for _ in range(5):
            w = rng.random((n, n)) * 0.5
            np.fill_diagonal(w, 0.0)
            raw = rng.random((n, n))
            t_mat = (raw + raw.T) / 2.0
            alpha, beta = float(rng.uniform(0.001, 0.2)), float(rng.uniform(0.1, 2.0))
            params = PlasticityParams(alpha=alpha, beta=beta)
            f = haeussler_rhs(WeightMatrix(w), t_mat, params)
            ref = growth_rate_loops(w.tolist(), t_mat.tolist(), alpha, beta)
            assert np.abs(f - np.asarray(ref)).max() <= 1e-12


def test_rhs_matches_budgeted_grouping():
    # the rate can be grouped as a + b*w*T - w*(a*n + b*coop); both
    # algebraic arrangements must agree to rounding
    n = 6
    rng = np.random.default_rng(3)
    w = rng.random((n, n)) * 0.4
    np.fill_diagonal(w, 0.0)
    tensor = gram_tensor(n, 4)
    params = PlasticityParams(alpha=0.05, beta=1.0)
    f = haeussler_rhs(WeightMatrix(w), tensor, params)
    coop = (w * tensor).sum(axis=1, keepdims=True)
    regrouped = params.alpha + params.beta * w * tensor - w * (params.alpha * n + params.beta * coop)
    np.fill_diagonal(regrouped, 0.0)
    assert np.abs(f - regrouped).max() <= 1e-13


def test_rhs_diagonal_is_forced_to_zero():
    f = haeussler_rhs(uniform_weights(5), gram_tensor(5, 9), PlasticityParams())
    assert np.array_equal(np.diagonal(f), np.zeros(5))


def test_rhs_shape_mismatches():
    with pytest.raises(ShapeMismatchError):
        haeussler_rhs(uniform_weights(5), gram_tensor(6, 0), PlasticityParams())


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def test_evolution_with_zero_tensor_relaxes_to_uniform():
    # without cooperation the unique rest point is 1/n everywhere off
    # the diagonal
    n = 6
    params = PlasticityParams(alpha=0.1, beta=1.0, max_steps=5000)
    rng = np.random.default_rng(12)
    w0 = rng.random((n, n)) * 0.5
    np.fill_diagonal(w0, 0.0)
    wf, report = evolve_weights(WeightMatrix(w0), zero_tensor(n), params)
    assert report.converged
    off = ~np.eye(n, dtype=bool)
    assert np.abs(wf.w[off] - 1.0 / n).max() <= 1e-5
    assert np.array_equal(np.diagonal(wf.w), np.zeros(n))


def test_single_step_composes_clamp_and_rate():
    n = 6
    rng = np.random.default_rng(8)
    w0 = rng.random((n, n)) * 0.5
    # one weight at the ceiling that dominates its row keeps growing, so
    # the step has to be clamped back to v
    w0[0] = [0.0, 0.5, 0.01, 0.01, 0.01, 0.01]
    np.fill_diagonal(w0, 0.0)
    tensor = gram_tensor(n, 9)
    params = PlasticityParams(max_steps=1)
    wf, report = evolve_weights(WeightMatrix(w0), tensor, params)
    f = haeussler_rhs(WeightMatrix(w0), tensor, params)
    unclamped = w0 + params.step(n, tensor) * f
    assert unclamped[0, 1] > params.v
    expected = np.clip(unclamped, 0.0, params.v)
    np.fill_diagonal(expected, 0.0)
    assert np.array_equal(wf.w, expected)
    assert report.steps == 1


def test_evolution_keeps_weights_in_range_and_diagonal_zero():
    n = 8
    for seed in range(3):
        rng = np.random.default_rng(seed)
        w0 = rng.random((n, n)) * 0.5
        np.fill_diagonal(w0, 0.0)
        params = PlasticityParams(max_steps=300)
        wf, _ = evolve_weights(WeightMatrix(w0), gram_tensor(n, seed + 50), params)
        assert np.all(wf.w >= 0.0) and np.all(wf.w <= params.v)
        assert np.array_equal(np.diagonal(wf.w), np.zeros(n))


def test_evolution_row_sums_settle_near_one():
    # generic cooperation with a controlled scale: converged rows sit
    # inside [0.9, 1.1]
    n = 6
    params = PlasticityParams(alpha=0.05, beta=1.0, max_steps=20000)
    for seed in range(10):
        wf, report = evolve_weights(uniform_weights(n), gram_tensor(n, seed, unit_rows=True), params)
        assert report.converged
        sums = wf.w.sum(axis=1)
        assert np.all(sums >= 0.9) and np.all(sums <= 1.1)


def test_evolution_winner_sits_on_strongest_cooperation():
    # from a uniform start the entry with the largest cooperation in its
    # row ends up carrying the largest weight
    n = 6
    params = PlasticityParams(alpha=0.01, beta=1.0, max_steps=60000)
    for seed in range(10):
        tensor = gram_tensor(n, seed + 200, unit_rows=True)
        t_off = tensor.copy()
        np.fill_diagonal(t_off, -np.inf)
        wf, _ = evolve_weights(uniform_weights(n), tensor, params)
        for i in range(n):
            assert int(wf.w[i].argmax()) == int(t_off[i].argmax())


def test_non_convergence_is_reported_not_raised():
    n = 6
    params = PlasticityParams(alpha=0.1, max_steps=3)
    w0 = np.zeros((n, n))
    wf, report = evolve_weights(WeightMatrix(w0), zero_tensor(n), params)
    assert not report.converged
    assert report.steps == 3
    assert len(report.trace) == 3


EVOLUTION_CASES = {
    # n = 129 rows cross numpy's 128-element pairwise-summation block
    "n129-clamps": (
        *clamping_case(129, 0, 0.5, 0.7),
        PlasticityParams(alpha=0.0, beta=0.7, max_steps=60),
        False,
    ),
    "n129-budget": (
        uniform_weights(129).w,
        gram_tensor(129, 7, unit_rows=True),
        PlasticityParams(max_steps=5),
        False,
    ),
    # one cell: the rate is all diagonal, so the first step changes nothing
    "n1-derived-converges": (np.zeros((1, 1)), gram_tensor(1, 3), PlasticityParams(), True),
    "n25-derived-converges": (
        uniform_weights(25).w,
        gram_tensor(25, 5, unit_rows=True),
        PlasticityParams(alpha=0.1, beta=0.7),
        True,
    ),
    "n25-derived-clamps": (
        *clamping_case(25, 0, 0.9, 1.3),
        PlasticityParams(alpha=0.0, beta=1.3, max_steps=400),
        False,
    ),
    "n129-derived-converges": (
        uniform_weights(129).w,
        gram_tensor(129, 7, unit_rows=True),
        PlasticityParams(),
        True,
    ),
    # alpha = 0 and a zero tensor: the rate is identically zero and the step is 1
    "n6-derived-zero-rate": (uniform_weights(6).w, zero_tensor(6), PlasticityParams(alpha=0.0), True),
}


@pytest.mark.parametrize("case", sorted(EVOLUTION_CASES))
def test_evolution_matches_the_reference_bit_for_bit(case):
    w0, tensor, params, converges = EVOLUTION_CASES[case]
    expected, trace, steps, converged, final_max_rhs = evolve_reference(w0, tensor, params)
    wf, report = evolve_weights(WeightMatrix(w0), tensor, params)
    assert np.array_equal(wf.w, expected)
    assert report.trace == trace
    assert report.steps == steps
    assert report.converged == converged == converges
    assert repr(report.final_max_rhs) == repr(final_max_rhs)
    if "clamps" in case:
        off = expected[~np.eye(len(expected), dtype=bool)]
        assert (off == 0.0).any() and (off == params.v).any()


@st.composite
def euler_inputs(draw):
    """Start weights in [0, v] with entries on both walls and signed zeros
    (on the diagonal too), a Gram tensor, and a tolerance that a run of
    many steps rarely meets; alpha = 0 or beta = 0 switch a term off.  The
    sizes reach every branch of numpy's pairwise row sum."""
    n = draw(st.sampled_from((1, 2, 3, 5, 8, 9, 25, 121, 128, 129, 130, 257)))
    v = draw(st.floats(0.01, 1.0))
    params = PlasticityParams(
        alpha=draw(st.just(0.0) | st.floats(0.0, 0.5)),
        beta=draw(st.just(0.0) | st.floats(0.0, 5.0)),
        v=v,
        max_steps=draw(st.integers(1, 40)),
        tol=draw(st.sampled_from((1e-12, 1e-6, 1e-3))),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random((n, n)) * v
    for wall in (v, 0.0, -0.0):
        w[rng.random((n, n)) < 0.15] = wall
    np.fill_diagonal(w, draw(st.sampled_from((0.0, -0.0))))
    x = rng.uniform(-1.0, 1.0, (n, draw(st.integers(1, 6))))
    return w, x @ x.T * draw(st.floats(0.01, 10.0)), params


@settings(deadline=None, max_examples=200)
@given(euler_inputs())
def test_the_euler_loop_returns_the_reference_bits(inputs):
    # a -0.0 start weight has a rate of at least +0.0, so the first step
    # turns it into +0.0 or more, under np.clip and maximum/minimum alike
    w0, tensor, params = inputs
    evolved, report = evolve_weights(WeightMatrix(w0), tensor, params)
    expected, table, converged = evolve_weights_reference(w0, tensor, params)
    assert same_bits(evolved.w, expected) and same_bits(report.table, table)
    assert (report.steps, report.converged) == (len(table), converged)
    assert not evolved.w.flags.writeable


@settings(deadline=None, max_examples=50)
@given(euler_inputs())
def test_the_rate_returns_the_reference_bits(inputs):
    w0, tensor, params = inputs
    rate = haeussler_rhs(WeightMatrix._wrap(w0), tensor, params)
    assert same_bits(rate, rate_reference(w0, tensor, params.alpha, params.beta))


def test_the_euler_loop_reads_weights_and_tensor_by_value_not_by_layout():
    # a tensor that is not symmetric tells a transposed read from a straight one
    n = 9
    rng = np.random.default_rng(4)
    w0 = rng.random((n, n)) * 0.5
    np.fill_diagonal(w0, 0.0)
    tensor = gram_tensor(n, 2) + rng.uniform(-0.1, 0.1, (n, n))
    params = PlasticityParams(alpha=0.05, max_steps=30)
    expected, table, _ = evolve_weights_reference(w0, tensor, params)
    for layout in (np.asfortranarray, lambda a: np.repeat(a, 2, axis=1)[:, ::2]):
        for w, t in ((layout(w0), tensor), (w0, layout(tensor)), (layout(w0), layout(tensor))):
            evolved, report = evolve_weights(WeightMatrix._wrap(w), t, params)
            assert same_bits(evolved.w, expected) and same_bits(report.table, table)
            assert same_bits(haeussler_rhs(WeightMatrix._wrap(w), t, params), rate_reference(w0, tensor, 0.05, 1.0))
    transposed, _ = evolve_weights(WeightMatrix._wrap(w0), tensor.T, params)
    assert same_bits(transposed.w, evolve_weights_reference(w0, tensor.T.copy(), params)[0])
    assert not np.array_equal(transposed.w, expected)


def test_a_huge_step_cap_allocates_only_for_the_steps_run():
    # no allocation is sized by max_steps: the trace grows one row per step
    # run, so a cap of 10**12 touches no more memory than the default and
    # changes no bit
    params = PlasticityParams(alpha=0.05)
    tensor = gram_tensor(6, 0, unit_rows=True)
    wf, report = evolve_weights(uniform_weights(6), tensor, params)
    huge_wf, huge = evolve_weights(uniform_weights(6), tensor, replace(params, max_steps=10**12))
    assert report.converged and report.steps > 64  # a run of many steps
    assert np.array_equal(huge_wf.w, wf.w)
    assert huge.trace == report.trace and huge.steps == report.steps


@st.composite
def evolution_inputs(draw):
    """Start weights in [0, v] and any Gram tensor."""
    n = draw(st.integers(1, 12))
    v = draw(st.floats(0.05, 1.0))
    alpha = draw(st.floats(0.0, 1.0))
    beta = draw(st.floats(0.0, 5.0))
    params = PlasticityParams(alpha=alpha, beta=beta, v=v, max_steps=draw(st.integers(1, 50)))
    w = draw(arrays(np.float64, (n, n), elements=st.floats(0.0, v)))
    np.fill_diagonal(w, 0.0)
    x = draw(arrays(np.float64, (n, draw(st.integers(1, n))), elements=st.floats(-1.0, 1.0)))
    return w, x @ x.T, params


@settings(deadline=None)
@given(evolution_inputs())
def test_evolution_keeps_weights_in_range_for_generated_inputs(inputs):
    w0, tensor, params = inputs
    wf, report = evolve_weights(WeightMatrix(w0), tensor, params)
    assert np.all(np.isfinite(wf.w))
    assert np.all(wf.w >= 0.0) and np.all(wf.w <= params.v)
    assert np.array_equal(np.diagonal(wf.w), np.zeros(len(w0)))
    assert len(report.trace) == report.steps
    assert 1 <= report.steps <= params.max_steps


# ---------------------------------------------------------------------------
# fixed points of the rule
# ---------------------------------------------------------------------------

def row_equation(w: np.ndarray, t: np.ndarray, params: PlasticityParams) -> np.ndarray:
    """min(v, alpha / c_ij) at w's own lambda_i, v where c_ij <= 0, zero diagonal."""
    n = len(w)
    t_off = t * (1.0 - np.eye(n))
    lam = (w * t_off).sum(axis=1, keepdims=True)
    c = n * params.alpha + params.beta * (lam - t_off)
    rest = np.where(c > 0.0, np.minimum(params.v, params.alpha / np.where(c > 0.0, c, 1.0)), params.v)
    np.fill_diagonal(rest, 0.0)
    return rest


@st.composite
def rule_inputs(draw):
    """Start weights in [0, v], any Gram tensor, and alpha > 0."""
    n = draw(st.integers(1, 12))
    v = draw(st.floats(0.05, 1.0))
    params = PlasticityParams(
        alpha=draw(st.floats(0.01, 1.0)), beta=draw(st.floats(0.0, 5.0)), v=v, max_steps=20000
    )
    w = draw(arrays(np.float64, (n, n), elements=st.floats(0.0, v)))
    np.fill_diagonal(w, 0.0)
    x = draw(arrays(np.float64, (n, draw(st.integers(1, n))), elements=st.floats(-1.0, 1.0)))
    return w, x @ x.T, params


@settings(deadline=None)
@given(rule_inputs())
def test_euler_comes_to_rest_on_the_row_equation(inputs):
    # Euler stops once every rate |f_ij| = |alpha - w_ij c_ij| is below tol, so
    # an unsaturated weight sits within tol / c_ij <= tol * v / (alpha - tol)
    # of alpha / c_ij, and a saturated one within the same of v
    w0, tensor, params = inputs
    wf, report = evolve_weights(WeightMatrix(w0), tensor, params)
    assume(report.converged)
    bound = 2.0 * params.tol * params.v / params.alpha
    assert np.abs(wf.w - row_equation(wf.w, tensor, params)).max() <= bound


@settings(deadline=None)
@given(rule_inputs())
def test_the_solved_fixed_point_is_in_range_and_already_quiescent(inputs):
    # which fixed point it is may differ from Euler's for an arbitrary
    # start: a row can have several, the saturated corner among them
    w0, tensor, params = inputs
    solved = row_fixed_points(WeightMatrix(w0), tensor, params)
    assert np.all(solved.w >= 0.0) and np.all(solved.w <= params.v)
    assert np.array_equal(np.diagonal(solved.w), np.zeros(len(w0)))
    polished, report = evolve_weights(solved, tensor, params)
    assert report.converged and report.steps <= 2
    assert np.abs(polished.w - solved.w).max() <= params.tol * params.step(len(w0), tensor) * report.steps


def test_without_decay_the_solve_leaves_the_start_to_euler():
    # with alpha = 0 the row equation fixes no point, so Euler alone decides
    w0, tensor, params, _ = EVOLUTION_CASES["n25-derived-clamps"]
    start = WeightMatrix(w0)
    assert row_fixed_points(start, tensor, params) is start


def test_the_solve_finds_the_uniform_level_without_cooperation():
    n = 6
    params = PlasticityParams(alpha=0.1, beta=1.0)
    rng = np.random.default_rng(12)
    w0 = rng.random((n, n)) * 0.5
    np.fill_diagonal(w0, 0.0)
    solved = row_fixed_points(WeightMatrix(w0), zero_tensor(n), params)
    expected = np.full((n, n), 1.0 / n)
    np.fill_diagonal(expected, 0.0)
    assert np.abs(solved.w - expected).max() <= 1e-15


# every branch of numpy's pairwise row sum: a plain loop below 8 terms,
# eight accumulators up to 128, halves split at a multiple of 8 above
SOLVE_SIZES = (*range(2, 10), 25, 121, 128, 129, 130, 257, 400)


@st.composite
def solve_inputs(draw, n: int):
    """Start weights in [0, v] and a Gram tensor x x^T with x in [-1, 1]:
    negative entries off the diagonal, positive ones on it; beta = 0 makes the
    stopping bound infinite and a small v saturates rows."""
    v = draw(st.sampled_from((0.002, 0.02)) | st.floats(0.05, 1.0))
    beta = draw(st.just(0.0) | st.floats(0.0, 5.0))
    params = PlasticityParams(alpha=draw(st.floats(0.001, 1.0)), beta=beta, v=v)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.random((n, n)) * v
    np.fill_diagonal(w, 0.0)
    x = rng.uniform(-1.0, 1.0, (n, draw(st.integers(1, 8))))
    return w, x @ x.T * draw(st.floats(0.01, 10.0)), params


@pytest.mark.parametrize("n", SOLVE_SIZES)
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_the_solve_returns_the_numpy_search_bit_for_bit(n, data):
    w0, tensor, params = data.draw(solve_inputs(n))
    solved = row_fixed_points(WeightMatrix(w0), tensor, params)
    assert np.array_equal(solved.w, row_fixed_points_reference(w0, tensor, params))


def test_the_solve_reads_the_tensor_by_value_not_by_layout():
    # a tensor that is not symmetric tells a transposed read from a straight one
    n = 9
    rng = np.random.default_rng(4)
    w0 = uniform_weights(n)
    tensor = gram_tensor(n, 2) + rng.uniform(-0.1, 0.1, (n, n))
    params = PlasticityParams(alpha=0.05)
    expected = row_fixed_points_reference(w0.w, tensor, params)
    for layout in (np.asfortranarray(tensor), np.repeat(tensor, 2, axis=1)[:, ::2]):
        assert np.array_equal(row_fixed_points(w0, layout, params).w, expected)
    transposed = row_fixed_points(w0, tensor.T, params).w
    assert np.array_equal(transposed, row_fixed_points_reference(w0.w, tensor.T.copy(), params))
    assert not np.array_equal(transposed, expected)


def test_the_solve_rejects_a_non_finite_tensor_before_the_kernel(monkeypatch):
    monkeypatch.setattr(plasticity, "load_kernel", None)  # calling it would fail
    for bad in (np.nan, np.inf, -np.inf):
        t = gram_tensor(4, 3)
        t[0, 1] = bad
        with pytest.raises(ParameterError, match="correlation tensor"):
            row_fixed_points(uniform_weights(4), t, PlasticityParams())


def test_a_solve_the_kernel_cannot_allocate_for_raises_memory_error(monkeypatch):
    # the kernel's 4 * 2**56 doubles are more than any address space maps, so malloc fails
    kernel = load_kernel()

    class Huge:
        @staticmethod
        def row_fixed_points(w, t, out, n, *rule):
            return kernel.row_fixed_points(w, t, out, 2**56, *rule)

    assert kernel.row_fixed_points(None, None, None, 2**56, 0.01, 1.0, 0.5, 1e-6) == 2
    monkeypatch.setattr(plasticity, "load_kernel", Huge)
    with pytest.raises(MemoryError, match="4 weight rows"):
        row_fixed_points(uniform_weights(4), gram_tensor(4, 3), PlasticityParams())


def test_evolution_rejects_out_of_range_start(monkeypatch):
    monkeypatch.setattr(plasticity, "load_kernel", None)  # calling it would fail: the check comes first
    n = 4
    params = PlasticityParams()
    for wall in (params.v + 0.2, params.v * (1.0 + 1e-15), -1e-300, np.inf):
        w = np.zeros((n, n))
        w[0, 1] = wall
        with pytest.raises(ParameterError, match=r"^evolution requires starting weights within \[0, v\]$"):
            evolve_weights(WeightMatrix._wrap(w), zero_tensor(n), params)


def test_evolution_rejects_a_non_finite_tensor_up_front(monkeypatch):
    monkeypatch.setattr(plasticity, "load_kernel", None)  # calling it would fail: the check comes first
    n = 4
    for bad in (np.nan, np.inf, -np.inf):
        t = gram_tensor(n, 3)
        t[0, 1] = bad
        with pytest.raises(ParameterError, match="^correlation tensor entries must be finite$"):
            evolve_weights(uniform_weights(n), t, PlasticityParams())


def test_report_serialization(tmp_path):
    n = 5
    params = PlasticityParams(max_steps=4)
    _, report = evolve_weights(uniform_weights(n), gram_tensor(n, 1), params)
    assert report.steps == 4 and not report.converged
    assert report.final_max_rhs == report.trace[-1][1]
    path = tmp_path / "trace.csv"
    report.save_trace_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,max_rhs,min_row_sum,mean_row_sum,max_row_sum"
    assert len(lines) == 5
