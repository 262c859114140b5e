"""Acceptance gate: one test per shipped claim, tolerances pinned.

Each test is self-contained and checks both the numbers and, where one
is stated, the runtime budget.  Heavy scenario runs (criteria 7-10) use
the library's experiment drivers at their intended sizes.
"""

import time

import numpy as np

from fireflynet.cli import main
from fireflynet.dynamics import (
    WeightMatrix,
    correlation_tensor,
    truncated_resolvent,
)
from fireflynet.firefly import FireflyPopulation, GridLayout, SwarmParams, swarm_step
from fireflynet.patterns import Pattern
from fireflynet.plasticity import PlasticityParams, evolve_weights, haeussler_rhs
from fireflynet.trainer import TrainerConfig, run_experiment

from oracles import growth_rate_loops, inf_norm_diff, inverse_of_i_minus, matmul_loops


def random_weights(rng: np.random.Generator, n: int, row_sum: float) -> np.ndarray:
    w = rng.random((n, n))
    np.fill_diagonal(w, 0.0)
    return w * (row_sum / w.sum(axis=1, keepdims=True))


def test_criterion_01_truncated_resolvent_tracks_the_dense_inverse():
    t0 = time.perf_counter()
    q = 0.4
    bound = q**4 / (1.0 - q) + 1e-12
    for seed in range(100):
        w = random_weights(np.random.default_rng(seed), 6, q)
        d = truncated_resolvent(WeightMatrix(w))
        exact = inverse_of_i_minus(w.tolist())
        assert inf_norm_diff(d.tolist(), exact) <= bound
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_growth_rate_matches_the_triple_loop_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    for n in (6, 25):
        for _ in range(50):
            w = rng.random((n, n)) * 0.5
            np.fill_diagonal(w, 0.0)
            raw = rng.random((n, n))
            t_mat = (raw + raw.T) / 2.0
            alpha = float(rng.uniform(0.001, 0.2))
            beta = float(rng.uniform(0.1, 2.0))
            params = PlasticityParams(alpha=alpha, beta=beta)
            f = haeussler_rhs(WeightMatrix(w), t_mat, params)
            ref = growth_rate_loops(w.tolist(), t_mat.tolist(), alpha, beta)
            assert np.abs(f - np.asarray(ref)).max() <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_criterion_03_fixed_points_of_the_weight_rule():
    t0 = time.perf_counter()
    # (a) without cooperation, evolution lands on the uniform level
    n = 6
    params = PlasticityParams(alpha=0.1, beta=1.0, max_steps=5000)
    rng = np.random.default_rng(7)
    w0 = rng.random((n, n)) * params.v
    np.fill_diagonal(w0, 0.0)
    zero_t = correlation_tensor(np.eye(n), np.array((), dtype=int))
    wf, report = evolve_weights(WeightMatrix(w0), zero_t, params)
    assert report.converged
    off = ~np.eye(n, dtype=bool)
    assert np.abs(wf.w[off] - 1.0 / n).max() <= 1e-5

    # (b) each term's rest state zeroes the rate identically:
    # the uniform level kills the decay term ...
    m = 8
    uniform = np.full((m, m), 1.0 / m)
    np.fill_diagonal(uniform, 0.0)
    some_t = correlation_tensor(np.random.default_rng(1).random((m, m)), np.array(tuple(range(m)), dtype=int))
    decay_only = PlasticityParams(alpha=0.3, beta=0.0)
    f1 = haeussler_rhs(WeightMatrix(uniform), some_t, decay_only)
    assert np.abs(f1).max() <= 1e-12
    # ... and a constant tensor with unit row sums kills the competition
    k = 9
    unit_rows = np.full((k, k), 1.0 / (k - 1))
    np.fill_diagonal(unit_rows, 0.0)
    const_t = np.full((k, k), 2.0)
    growth_only = PlasticityParams(alpha=0.0, beta=1.0)
    f2 = haeussler_rhs(WeightMatrix(unit_rows), const_t, growth_only)
    assert np.abs(f2).max() <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_criterion_04_ring_self_organization_favors_near_neighbors():
    t0 = time.perf_counter()
    report = run_experiment(TrainerConfig(n=25), "evolve1d", seeds=[0])
    m = report.metrics
    assert m["converged"] == 1
    assert m["nearest_over_third_margin"] > 0.0
    assert m["nearest_mean"] >= 2.0 * m["non_neighbor_mean"]
    assert 0.9 <= m["row_sum_min"] and m["row_sum_max"] <= 1.1
    assert time.perf_counter() - t0 < 10.0


def test_criterion_05_correlation_tensor_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    n = 6
    full = np.array(tuple(range(n)), dtype=int)
    for _ in range(50):
        d = rng.random((n, n))
        t = correlation_tensor(d, full)
        assert np.abs(t - t.T).max() <= 1e-12
        assert np.linalg.eigvalsh(t).min() >= -1e-10
        d_sym = (d + d.T) / 2.0
        t_sym = correlation_tensor(d_sym, full)
        square = np.asarray(matmul_loops(d_sym.tolist(), d_sym.tolist()))
        assert np.abs(t_sym - square).max() <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_criterion_06_swarm_gathers_at_the_active_cell():
    t0 = time.perf_counter()
    layout = GridLayout(3, 3)
    hot = np.zeros(9)
    hot[4] = 1.0
    activity = Pattern(hot, grid=(3, 3))
    target = np.array([0.5, 0.5])

    def mean_distance(pop):
        return float(np.linalg.norm(pop.positions - target, axis=1).mean())

    for seed in range(50):
        params = SwarmParams(eta=0.0, d_min=0.0)
        pop = FireflyPopulation.spawn(40, params, rng=np.random.default_rng(seed))
        previous = mean_distance(pop)
        for _ in range(10):
            swarm_step(pop, activity, layout)
            current = mean_distance(pop)
            assert current <= previous + 1e-12
            previous = current

    improved = 0
    for seed in range(50):
        params = SwarmParams(eta=0.05, d_min=0.0)
        pop = FireflyPopulation.spawn(40, params, rng=np.random.default_rng(seed))
        initial = mean_distance(pop)
        for _ in range(10):
            swarm_step(pop, activity, layout)
        improved += int(mean_distance(pop) < initial)
    assert improved >= 45
    assert time.perf_counter() - t0 < 5.0


def test_criterion_07_recall_cleans_noisy_cues():
    t0 = time.perf_counter()
    cfg = TrainerConfig(n=25, grid=(5, 5), use_firefly=True, pattern_count=3)
    report = run_experiment(cfg, "denoise", seeds=range(20))
    assert report.metrics["median_improvement"] > 0.0
    assert report.metrics["converged_fraction"] >= 0.99
    assert time.perf_counter() - t0 < 30.0


def test_criterion_08_recall_completes_masked_cues():
    t0 = time.perf_counter()
    cfg = TrainerConfig(n=25, grid=(5, 5), use_firefly=True, pattern_count=3)
    report = run_experiment(cfg, "complete", seeds=range(20))
    assert report.metrics["median_improvement"] > 0.0
    assert report.metrics["converged_fraction"] >= 0.99
    assert time.perf_counter() - t0 < 30.0


def test_criterion_09_swarm_topology_does_not_hurt_recall():
    cfg = TrainerConfig(n=100, grid=(10, 10), use_firefly=True)
    report = run_experiment(cfg, "recall2d", seeds=range(20))
    assert report.metrics["median_paired_diff"] >= 0.0
    assert report.metrics["converged_fraction"] >= 0.99


def test_criterion_10_digit_cues_find_their_labels():
    t0 = time.perf_counter()
    cfg = TrainerConfig(n=121, grid=(11, 11), use_firefly=True)
    report = run_experiment(cfg, "digits", seeds=range(20))
    assert report.metrics["perfect_seeds"] >= 18
    assert report.metrics["converged_fraction"] >= 0.99
    assert time.perf_counter() - t0 < 60.0


def test_criterion_11_repeat_runs_are_byte_identical(tmp_path):
    args = [
        "experiment",
        "denoise",
        "--set",
        "n=25",
        "--set",
        "rows=5",
        "--set",
        "cols=5",
        "--set",
        "use_firefly=true",
        "--set",
        "seeds=0,1",
    ]
    dirs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert main([*args, "--out", str(out)]) == 0
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert sorted(p.name for p in dirs[1].iterdir()) == names
    assert any(name.endswith(".csv") for name in names)
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
