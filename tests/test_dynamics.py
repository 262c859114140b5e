"""Linear response machinery: resolvent and correlation tensor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fireflynet.dynamics import (
    WeightMatrix,
    correlation_tensor,
    load_matrix_csv,
    save_matrix_csv,
    save_matrix_pgm,
    truncated_resolvent,
)
from fireflynet.errors import FormatError, ParameterError, ShapeMismatchError
from fireflynet.patterns import load_image

from oracles import inf_norm_diff, inverse_of_i_minus, matmul_loops


def random_weights(seed: int, n: int = 6, row_sum: float = 0.4) -> WeightMatrix:
    """Non-negative weights with zero diagonal, rows scaled to a fixed sum."""
    rng = np.random.default_rng(seed)
    w = rng.random((n, n))
    np.fill_diagonal(w, 0.0)
    w *= row_sum / w.sum(axis=1, keepdims=True)
    return WeightMatrix(w)


# ---------------------------------------------------------------------------
# WeightMatrix invariants
# ---------------------------------------------------------------------------

def test_weight_matrix_rejects_nonzero_diagonal():
    with pytest.raises(ParameterError):
        WeightMatrix(np.eye(3))


def test_weight_matrix_rejects_non_square_and_non_finite():
    with pytest.raises(ParameterError):
        WeightMatrix(np.zeros((2, 3)))
    bad = np.zeros((2, 2))
    bad[0, 1] = np.inf
    with pytest.raises(ParameterError):
        WeightMatrix(bad)


def test_weight_matrix_parts_and_norm():
    w = np.array([[0.0, 0.3, -0.1], [0.2, 0.0, 0.0], [-0.4, 0.1, 0.0]])
    wm = WeightMatrix(w)
    assert np.all(wm.positive_part() >= 0.0)
    assert np.all(wm.negative_part() <= 0.0)
    assert np.array_equal(wm.positive_part() + wm.negative_part(), w)


# ---------------------------------------------------------------------------
# truncated resolvent
# ---------------------------------------------------------------------------

def test_resolvent_of_zero_weights_is_identity():
    d = truncated_resolvent(WeightMatrix(np.zeros((4, 4))))
    assert np.array_equal(d, np.eye(4))


def test_resolvent_of_nilpotent_matrix_stops_at_first_power():
    w = np.zeros((2, 2))
    w[0, 1] = 0.37
    d = truncated_resolvent(WeightMatrix(w))
    assert np.array_equal(d, np.eye(2) + w)


def test_resolvent_tracks_exact_inverse_within_series_tail():
    # four-term expansion of (I - W)^-1: the dropped tail is bounded by
    # q^4 / (1 - q) in the infinity norm for max row sum q
    bound = 0.4**4 / 0.6 + 1e-12
    for seed in range(10):
        wm = random_weights(seed)
        d = truncated_resolvent(wm)
        exact = inverse_of_i_minus(wm.w.tolist())
        assert inf_norm_diff(d, exact) <= bound


# ---------------------------------------------------------------------------
# correlation tensor
# ---------------------------------------------------------------------------

def test_tensor_identity_resolvent_single_source():
    d = np.eye(8)
    t = correlation_tensor(d, np.array((5,), dtype=int))
    e5 = np.zeros(8)
    e5[5] = 1.0
    assert np.array_equal(t, np.outer(e5, e5))


def test_tensor_identity_resolvent_full_set():
    d = np.eye(8)
    t = correlation_tensor(d, np.array(tuple(range(8)), dtype=int))
    assert np.array_equal(t, np.eye(8))


def test_tensor_equals_d_squared_for_symmetric_resolvent():
    rng = np.random.default_rng(11)
    a = rng.random((6, 6))
    d = (a + a.T) / 2.0
    t = correlation_tensor(d, np.array(tuple(range(6)), dtype=int))
    expected = matmul_loops(d.tolist(), d.tolist())
    assert np.abs(t - np.asarray(expected)).max() <= 1e-12


def test_tensor_is_symmetric_and_psd():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        d = rng.random((7, 7))
        idx = tuple(int(i) for i in rng.choice(7, size=rng.integers(1, 8), replace=False))
        t = correlation_tensor(d, np.array(idx, dtype=int))
        assert np.abs(t - t.T).max() <= 1e-12
        assert float(np.linalg.eigvalsh(t).min()) >= -1e-10


@st.composite
def resolvent_and_sources(draw):
    n = draw(st.integers(1, 12))
    d = draw(arrays(np.float64, (n, n), elements=st.floats(-4.0, 4.0)))
    sources = draw(st.sets(st.integers(0, n - 1)))
    return d, np.array(tuple(sorted(sources)), dtype=int)


@settings(max_examples=200, deadline=None)
@given(resolvent_and_sources())
def test_tensor_is_symmetric_and_psd_for_generated_inputs(case):
    d, sources = case
    t = correlation_tensor(d, sources)
    assert np.array_equal(t, t.T)
    eig = np.linalg.eigvalsh(t)
    assert eig.min() >= -1e-12 * max(1.0, float(np.abs(eig).max()))


def test_tensor_grows_with_the_source_set():
    # adding sources adds a rank-one non-negative piece: T_small <= T_big
    # in the ordering where the difference stays positive semidefinite
    rng = np.random.default_rng(21)
    d = rng.random((7, 7))
    small = np.array((1, 4), dtype=int)
    big = np.array((1, 2, 4, 6), dtype=int)
    t_small = correlation_tensor(d, small)
    t_big = correlation_tensor(d, big)
    assert float(np.linalg.eigvalsh(t_big - t_small).min()) >= -1e-10


def test_tensor_empty_source_set_is_zero():
    t = correlation_tensor(np.eye(5), np.array((), dtype=int))
    assert np.array_equal(t, np.zeros((5, 5)))


def test_tensor_rejects_out_of_range_sources():
    with pytest.raises(ParameterError):
        correlation_tensor(np.eye(5), np.array((7,), dtype=int))


# ---------------------------------------------------------------------------
# matrix files
# ---------------------------------------------------------------------------

def test_matrix_csv_round_trip_is_exact(tmp_path):
    m = np.random.default_rng(2).random((5, 5)) - 0.3
    path = tmp_path / "m.csv"
    save_matrix_csv(m, path)
    assert np.array_equal(load_matrix_csv(path), m)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=st.floats(allow_nan=False))
    )
)
def test_matrix_csv_round_trip_is_exact_for_generated_matrices(tmp_path_factory, m):
    path = tmp_path_factory.mktemp("matrix") / "m.csv"
    save_matrix_csv(m, path)
    back = load_matrix_csv(path)
    assert np.array_equal(back, m)
    assert np.array_equal(np.signbit(back), np.signbit(m))


def test_matrix_csv_rejects_non_square():
    with pytest.raises(ParameterError):
        save_matrix_csv(np.zeros((2, 3)), "unused.csv")


def test_matrix_csv_load_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("")
    with pytest.raises(FormatError):
        load_matrix_csv(p)
    p.write_text("x\n1,2\n")
    with pytest.raises(FormatError):
        load_matrix_csv(p)
    p.write_text("2\n1,2\n")
    with pytest.raises(ShapeMismatchError):
        load_matrix_csv(p)
    p.write_text("2\n1,2\n3\n")
    with pytest.raises(ShapeMismatchError):
        load_matrix_csv(p)
    p.write_text("2\n1,2\n3,oops\n")
    with pytest.raises(FormatError):
        load_matrix_csv(p)


def test_matrix_pgm_renders_and_reloads(tmp_path):
    m = np.random.default_rng(4).random((6, 6))
    path = tmp_path / "m.pgm"
    save_matrix_pgm(m, path)
    img = load_image(path)
    assert img.grid == (6, 6)
    # min-max scaling preserves the argmax pixel
    assert int(np.argmax(img.values)) == int(np.argmax(m))


def test_matrix_pgm_flat_matrix_renders_black(tmp_path):
    path = tmp_path / "flat.pgm"
    save_matrix_pgm(np.full((3, 3), 0.7), path)
    assert path.read_bytes().endswith(bytes(9))
