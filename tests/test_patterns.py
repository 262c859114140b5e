"""Pattern generation, corruption, and file round-trips."""

import math

import numpy as np
import pytest

from fireflynet.dynamics import load_matrix_csv
from fireflynet.errors import (
    FormatError,
    ParameterError,
    PatternAnnihilatedError,
    ShapeMismatchError,
)
from fireflynet.patterns import (
    Pattern,
    active_set,
    add_noise,
    cosine,
    fuse,
    gaussian_1d,
    gaussian_2d,
    load_image,
    load_pattern_csv,
    mask,
    relative_threshold,
    save_image,
    save_pattern_csv,
    save_pgm,
)

from oracles import gauss_value, mask_reference, unit_scale


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_pattern_rejects_negative_entries():
    with pytest.raises(ParameterError):
        Pattern(np.array([0.5, -0.1, 0.2]))


def test_pattern_rejects_non_finite_entries():
    with pytest.raises(ParameterError):
        Pattern(np.array([1.0, np.nan]))
    with pytest.raises(ParameterError):
        Pattern(np.array([1.0, np.inf]))


def test_pattern_rejects_empty_and_2d_input():
    with pytest.raises(ParameterError):
        Pattern(np.array([]))
    with pytest.raises(ParameterError):
        Pattern(np.ones((2, 2)))


def test_pattern_grid_must_match_length():
    with pytest.raises(ShapeMismatchError):
        Pattern(np.ones(6), grid=(2, 2))


def test_normalize_rejects_zero_pattern():
    with pytest.raises(PatternAnnihilatedError):
        Pattern(np.zeros(4)).normalize()


def test_as_grid_reshapes_and_lines_are_one_row():
    p = Pattern(np.arange(6, dtype=float) + 1.0, grid=(2, 3))
    assert p.as_grid().shape == (2, 3)
    q = Pattern(np.ones(4))
    assert q.as_grid().shape == (1, 4)


# ---------------------------------------------------------------------------
# cosine
# ---------------------------------------------------------------------------

def test_cosine_is_one_for_positive_multiples():
    p = gaussian_1d(25, 12.0, 2.0)
    assert cosine(p, Pattern(3.0 * p.values)) == pytest.approx(1.0, abs=1e-12)


def test_cosine_zero_vector_convention():
    assert cosine(np.zeros(4), np.ones(4)) == 0.0


def test_cosine_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        cosine(np.ones(3), np.ones(4))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gaussian_1d_peaks_at_center():
    p = gaussian_1d(25, 12.0, 2.0)
    assert int(np.argmax(p.values)) == 12


def test_gaussian_1d_is_symmetric_about_center():
    p = gaussian_1d(25, 12.0, 2.0)
    # equal distances from the center give bitwise-equal values
    assert p.values[10] == p.values[14]
    assert p.values[9] == p.values[15]


def test_gaussian_1d_matches_scalar_reference():
    p = gaussian_1d(25, 12.0, 2.0)
    expected = unit_scale([gauss_value(x, 12.0, 2.0) for x in range(25)])
    assert np.abs(p.values - np.asarray(expected)).max() <= 1e-12


def test_gaussian_1d_output_is_unit_norm():
    for sigma in (0.5, 2.0, 10.0):
        p = gaussian_1d(25, 7.0, sigma)
        assert math.sqrt(float(np.dot(p.values, p.values))) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_1d_parameter_errors():
    with pytest.raises(ParameterError):
        gaussian_1d(0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        gaussian_1d(25, 12.0, 0.0)
    with pytest.raises(ParameterError):
        gaussian_1d(25, 12.0, -1.0)


def test_gaussian_1d_wrap_shift_covariance():
    # shifting the center by an integer rolls the wrapped profile; the
    # normalizing sum runs in a different order, so allow one ulp
    base = gaussian_1d(25, 5.0, 2.0, wrap=True)
    for k in (1, 7, 13):
        shifted = gaussian_1d(25, float((5 + k) % 25), 2.0, wrap=True)
        assert np.abs(np.roll(base.values, k) - shifted.values).max() <= 1e-15


def test_gaussian_2d_peaks_at_grid_center():
    p = gaussian_2d(5, 5, 2.0, 2.0, 1.0, 1.0)
    assert int(np.argmax(p.values)) == 12


def test_gaussian_2d_radial_symmetry():
    p = gaussian_2d(5, 5, 2.0, 2.0, 1.0, 1.0)
    g = p.as_grid()
    assert g[1, 2] == g[3, 2] == g[2, 1] == g[2, 3]


def test_gaussian_2d_matches_scalar_reference():
    p = gaussian_2d(5, 5, 1.0, 3.0, 1.0, 2.0)
    raw = [gauss_value(c, 1.0, 1.0) * gauss_value(r, 3.0, 2.0) for r in range(5) for c in range(5)]
    assert np.abs(p.values - np.asarray(unit_scale(raw))).max() <= 1e-12


def test_gaussian_2d_parameter_errors():
    with pytest.raises(ParameterError):
        gaussian_2d(0, 5, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        gaussian_2d(5, 5, 1.0, 1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def test_add_noise_level_zero_is_identity():
    p = gaussian_1d(25, 12.0, 2.0)
    assert np.array_equal(add_noise(p, 0.0, 7).values, p.values)


def test_add_noise_is_deterministic_per_seed():
    p = gaussian_2d(5, 5, 2.0, 2.0, 1.0, 1.0)
    a = add_noise(p, 0.2, 99)
    b = add_noise(p, 0.2, 99)
    assert np.array_equal(a.values, b.values)
    c = add_noise(p, 0.2, 100)
    assert not np.array_equal(a.values, c.values)


def test_add_noise_uses_the_documented_perturbation_stream():
    p = gaussian_1d(25, 12.0, 2.0)
    draw = np.random.default_rng(42).normal(0.0, 0.2, 25)
    expected = np.clip(p.values + draw, 0.0, None)
    expected = expected / math.sqrt(float(np.dot(expected, expected)))
    assert np.abs(add_noise(p, 0.2, 42).values - expected).max() <= 1e-15


def test_add_noise_perturbation_has_zero_mean():
    """Monte Carlo over 1000 seeds: the pre-clamp perturbation is centered.

    Standard error of the grand mean over 1000 draws of 25 entries at
    std 0.2 is 0.2 / sqrt(25000); the observed mean must sit within 3 of
    those.
    """
    level, n, seeds = 0.2, 25, 1000
    total = 0.0
    for seed in range(seeds):
        total += float(np.random.default_rng(seed).normal(0.0, level, n).sum())
    grand_mean = total / (seeds * n)
    assert abs(grand_mean) <= 3.0 * level / math.sqrt(seeds * n)


def test_add_noise_rejects_negative_level():
    with pytest.raises(ParameterError):
        add_noise(gaussian_1d(5, 2.0, 1.0), -0.1, 0)


def test_add_noise_output_stays_non_negative_and_unit_norm():
    p = gaussian_2d(5, 5, 2.0, 2.0, 1.0, 1.0)
    q = add_noise(p, 0.5, 3)
    assert np.all(q.values >= 0.0)
    assert math.sqrt(float(np.dot(q.values, q.values))) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def test_fuse_is_idempotent_on_equal_inputs():
    p = gaussian_2d(5, 5, 2.0, 2.0, 1.0, 1.0)
    assert np.abs(fuse(p, p, 1.0, 1.0).values - p.values).max() <= 1e-12


def test_fuse_degenerate_weight_returns_first_input():
    p1 = gaussian_2d(5, 5, 1.0, 1.0, 1.0, 1.0)
    p2 = gaussian_2d(5, 5, 3.0, 3.0, 1.0, 1.0)
    assert np.abs(fuse(p1, p2, 1.0, 0.0).values - p1.values).max() <= 1e-12


def test_fuse_of_disjoint_supports_is_their_union():
    # bell-shaped bumps placed on separate supports, zero elsewhere
    a = np.zeros(25)
    b = np.zeros(25)
    for k, x in enumerate((0, 1, 2)):
        a[x] = gauss_value(k, 1.0, 0.8)
    for k, x in enumerate((20, 21, 22)):
        b[x] = gauss_value(k, 1.0, 0.8)
    p1 = Pattern(a, grid=(5, 5)).normalize()
    p2 = Pattern(b, grid=(5, 5)).normalize()
    fused = fuse(p1, p2, 1.0, 1.0)
    support = set(np.flatnonzero(fused.values))
    assert support == {0, 1, 2, 20, 21, 22}


def test_fuse_rejects_bad_weights_and_shapes():
    p = gaussian_1d(10, 5.0, 1.0)
    with pytest.raises(ParameterError):
        fuse(p, p, 0.0, 0.0)
    with pytest.raises(ParameterError):
        fuse(p, p, -1.0, 1.0)
    with pytest.raises(ShapeMismatchError):
        fuse(p, gaussian_1d(11, 5.0, 1.0), 1.0, 1.0)
    # same length, different grid arrangement is still a mismatch
    with pytest.raises(ShapeMismatchError):
        fuse(gaussian_2d(2, 6, 1.0, 1.0, 1.0, 1.0), gaussian_2d(3, 4, 1.0, 1.0, 1.0, 1.0), 1.0, 1.0)


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------

def test_mask_empty_set_is_identity():
    p = gaussian_2d(5, 5, 2.0, 2.0, 1.0, 1.0)
    assert np.array_equal(mask(p, []).values, p.values)


def test_mask_annihilation_raises():
    p = Pattern(np.array([0.0, 1.0, 2.0, 0.0])).normalize()
    with pytest.raises(PatternAnnihilatedError, match="annihilated"):
        mask(p, [1, 2])


def test_mask_30_percent_keeps_partial_similarity():
    p = gaussian_2d(5, 5, 2.0, 2.0, 1.0, 1.0)
    masked = mask(p, list(range(0, 25, 3))[:7])  # 7 of 25 entries
    c = cosine(masked, p)
    assert 0.0 < c < 1.0


def test_mask_composition_equals_union():
    p = gaussian_2d(5, 5, 2.0, 2.0, 1.0, 1.0)
    a, b = [0, 1, 5], [5, 6, 12]
    twice = mask(mask(p, a), b)
    once = mask(p, set(a) | set(b))
    assert np.abs(twice.values - once.values).max() <= 1e-12


def test_mask_rejects_out_of_range_indices():
    p = gaussian_1d(10, 5.0, 1.0)
    with pytest.raises(ParameterError):
        mask(p, [10])
    with pytest.raises(ParameterError):
        mask(p, [-1])


def test_mask_reads_indices_as_int_does_whatever_holds_them():
    # numpy integer arrays take a faster parse than int() on each entry;
    # floats (truncated toward zero), booleans and a column, which int()
    # refuses, must still read as int() reads them
    p = Pattern(np.arange(1.0, 7.0), grid=(2, 3), label="p")
    kinds = (
        [2, 0, 2], {0, 2}, range(0, 3, 2), (np.int64(2), 0), np.array([2, 0], dtype=np.uint8),
        np.array([-0.5, 2.75]), np.array([0.5, 6.5]), np.array([-1, 2]), np.array([True, False]),
        np.array([[0], [2]]), np.array([], dtype=np.int64),
    )
    for masked in kinds:
        try:
            want = mask_reference(p, masked)
        except Exception as exc:
            with pytest.raises(type(exc)) as raised:
                mask(p, masked)
            assert str(raised.value) == str(exc)
            continue
        got = mask(p, masked)
        assert (got.values.tobytes(), got.grid, got.label) == (want.values.tobytes(), want.grid, want.label)


# ---------------------------------------------------------------------------
# active set
# ---------------------------------------------------------------------------

def test_active_set_threshold_zero_is_full_for_positive_pattern():
    p = gaussian_1d(25, 12.0, 5.0)
    assert active_set(p, 0.0).tolist() == list(range(25))


def test_active_set_at_or_above_peak_is_empty():
    p = gaussian_1d(25, 12.0, 2.0)
    assert len(active_set(p, float(p.values.max()))) == 0
    assert len(active_set(p, 1.0)) == 0


def test_active_set_matches_brute_force_scan():
    p = gaussian_2d(5, 5, 2.0, 2.0, 1.0, 1.0)
    theta = 0.5 * float(p.values.max())
    expected = [i for i in range(25) if p.values[i] > theta]
    assert active_set(p, theta).tolist() == expected


def test_active_set_rejects_negative_threshold():
    with pytest.raises(ParameterError):
        active_set(gaussian_1d(5, 2.0, 1.0), -0.5)


def test_relative_threshold_scales_with_peak():
    p = Pattern(np.array([0.0, 2.0, 4.0]))
    assert relative_threshold(p, 0.25) == 1.0
    assert relative_threshold(Pattern(np.zeros(3)), 0.1) == 0.0


def test_active_set_membership_and_array():
    s = active_set(Pattern(np.array([0.0, 3.0, 0.5, 2.0])), 1.0)
    assert s.tolist() == [1, 3] and s.dtype.kind == "i"
    assert 1 in s and 2 not in s


# ---------------------------------------------------------------------------
# file IO
# ---------------------------------------------------------------------------

def test_pattern_csv_round_trip_is_lossless(tmp_path):
    p = gaussian_2d(5, 5, 1.7, 2.3, 0.8, 1.4)
    path = tmp_path / "p.csv"
    save_pattern_csv(p, path)
    q = load_pattern_csv(path)
    assert q.grid == (5, 5)
    assert np.abs(q.values - p.values).max() <= 1e-12


def write_p2(p, path, comment=""):
    """The ASCII (P2) form of the raster save_pgm writes as P5."""
    pixels = np.rint(p.as_grid() / p.values.max() * 255.0).astype(np.uint8)
    rows, cols = pixels.shape
    body = "\n".join(" ".join(str(int(x)) for x in row) for row in pixels)
    path.write_text(f"P2\n{comment}{cols} {rows}\n255\n{body}\n")


def test_pgm_round_trip_within_quantization(tmp_path):
    p = gaussian_2d(5, 5, 2.0, 2.0, 1.0, 1.0)
    for write in (save_pgm, write_p2):
        path = tmp_path / f"p_{write.__name__}.pgm"
        write(p, path)
        q = load_image(path)
        assert q.grid == (5, 5)
        # compare peak-scaled profiles: 8-bit quantization allows 1/255
        orig = p.values / p.values.max()
        back = q.values / q.values.max()
        assert np.abs(orig - back).max() <= 1.0 / 255.0


def test_ascii_and_binary_pgm_agree(tmp_path):
    p = gaussian_2d(4, 6, 2.0, 1.0, 1.0, 1.5)
    save_pgm(p, tmp_path / "b.pgm")
    write_p2(p, tmp_path / "a.pgm")
    write_p2(p, tmp_path / "c.pgm", comment="# made by hand\n")
    binary = load_image(tmp_path / "b.pgm")
    for name in ("a.pgm", "c.pgm"):
        ascii_ = load_image(tmp_path / name)
        assert ascii_.grid == binary.grid and np.array_equal(ascii_.values, binary.values)


def test_all_black_image_annihilates_on_load(tmp_path):
    path = tmp_path / "black.pgm"
    path.write_bytes(b"P5\n5 5\n255\n" + bytes(25))
    with pytest.raises(PatternAnnihilatedError, match="annihilated"):
        load_image(path)


def test_pgm_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment line\n2 2\n255\n" + bytes([10, 20, 30, 40]))
    p = load_image(path)
    assert p.grid == (2, 2)


def test_load_image_error_cases(tmp_path):
    empty = tmp_path / "empty.pgm"
    empty.write_bytes(b"")
    with pytest.raises(FormatError):
        load_image(empty)

    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n5 5\n255\n" + bytes(10))
    with pytest.raises(ShapeMismatchError):
        load_image(short)

    deep = tmp_path / "deep.pgm"
    deep.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError):
        load_image(deep)


def test_pattern_csv_error_cases(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("five,5\n")
    with pytest.raises(FormatError):
        load_pattern_csv(bad_header)

    wrong_rows = tmp_path / "r.csv"
    wrong_rows.write_text("2,2\n1,0\n")
    with pytest.raises(ShapeMismatchError):
        load_pattern_csv(wrong_rows)

    negative = tmp_path / "n.csv"
    negative.write_text("1,2\n0.5,-0.5\n")
    with pytest.raises(FormatError):
        load_pattern_csv(negative)


# Each case is the file text given the loader's header for size k.
DAMAGED_GRIDS = {
    "empty": (lambda head: "", FormatError),
    "non-integer header": (lambda head: head("two") + "\n1,0\n0,1\n", FormatError),
    "extra header field": (lambda head: head(2) + ",2\n1,0\n0,1\n", FormatError),
    "size below 1": (lambda head: head(0) + "\n", FormatError),
    "too few rows": (lambda head: head(2) + "\n1,0\n", ShapeMismatchError),
    "ragged row": (lambda head: head(2) + "\n1,0\n0\n", ShapeMismatchError),
    "non-numeric cell": (lambda head: head(2) + "\n1,0\n0,x\n", FormatError),
}
GRID_LOADERS = {
    "pattern": (load_pattern_csv, lambda k: f"{k},{k}"),
    "matrix": (load_matrix_csv, lambda k: f"{k}"),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_GRIDS))
@pytest.mark.parametrize("kind", sorted(GRID_LOADERS))
def test_pattern_and_matrix_loaders_reject_the_same_damage(tmp_path, kind, damage):
    load, head = GRID_LOADERS[kind]
    text, error = DAMAGED_GRIDS[damage]
    path = tmp_path / "damaged.csv"
    path.write_text(text(head))
    with pytest.raises(error):
        load(path)


def test_save_image_dispatches_on_extension(tmp_path):
    p = gaussian_2d(3, 3, 1.0, 1.0, 1.0, 1.0)
    save_image(p, tmp_path / "x.csv")
    save_image(p, tmp_path / "x.pgm")
    assert load_image(tmp_path / "x.csv").grid == (3, 3)
    assert load_image(tmp_path / "x.pgm").grid == (3, 3)
    with pytest.raises(ParameterError):
        save_image(p, tmp_path / "x.png")
