"""Activity patterns: generation, corruption, and file round-tripping.

A pattern is a non-negative activity vector, optionally arranged on a 2D
grid (row-major).  Generators return unit-norm patterns; corruption
helpers (noise, masking, fusion) renormalize their output so downstream
similarity metrics stay scale-free.

Supported file formats:
  * pattern CSV: first line ``rows,cols``, then ``rows`` lines of
    ``cols`` comma-separated reals
  * PGM images, 8-bit only: ASCII (P2) and binary (P5) are read, P5 is
    written

The file IO section also holds the text reader and the CSV readers and
writers that every module's files go through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    FormatError,
    ParameterError,
    PatternAnnihilatedError,
    ShapeMismatchError,
)

# Below this Euclidean norm a vector counts as annihilated.
NORM_EPS = 1e-12

# Format of every float written to a file: 17 digits round-trip a float64.
FLOAT_FMT = "%.17g"


def _unit(values: np.ndarray) -> np.ndarray:
    """Scale to unit Euclidean norm; reject all-zero input."""
    norm = math.sqrt(float(np.dot(values, values)))
    if norm <= NORM_EPS:
        raise PatternAnnihilatedError("pattern annihilated: zero norm after operation")
    return values / norm


@dataclass(frozen=True)
class Pattern:
    """Non-negative activity vector with optional grid arrangement.

    Attributes:
        values: 1D float array, entries >= 0 and finite.
        grid: (rows, cols) when the vector is a row-major flattening of a
            2D grid, or None for a plain 1D line of cells.
        label: optional name used for stored-template matching.
    """

    values: np.ndarray
    grid: tuple[int, int] | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float, order="C")  # the swarm kernel reads it as a C-contiguous buffer
        if v.ndim != 1 or v.size == 0:
            raise ParameterError(f"pattern values must be a non-empty 1D vector, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ParameterError("pattern values must be finite")
        if (v < 0.0).any():
            raise ParameterError("pattern values must be non-negative")
        object.__setattr__(self, "values", v)
        if self.grid is not None:
            rows, cols = self.grid
            if rows < 1 or cols < 1:
                raise ParameterError(f"grid sides must be positive, got {self.grid}")
            if rows * cols != v.size:
                raise ShapeMismatchError(
                    f"grid {rows}x{cols} does not match vector length {v.size}"
                )

    @classmethod
    def _wrap(cls, values: np.ndarray, grid: tuple[int, int] | None, label: str | None) -> "Pattern":
        """A fresh C-ordered vector built from checked inputs, finite, >= 0, grid-sized: no check, no copy."""
        p = object.__new__(cls)
        vars(p).update(values=values, grid=grid, label=label)  # what the frozen constructor's setattr does
        return p

    @property
    def n(self) -> int:
        return int(self.values.size)

    def normalize(self) -> "Pattern":
        """Return a unit-norm copy; raises PatternAnnihilatedError on zero input."""
        return Pattern(_unit(self.values), grid=self.grid, label=self.label)

    def as_grid(self) -> np.ndarray:
        """Reshape to (rows, cols); a line comes back as a single row."""
        rows, cols = self.grid if self.grid is not None else (1, self.n)
        return self.values.reshape(rows, cols)

    def same_layout(self, other: "Pattern") -> bool:
        return self.n == other.n and self.grid == other.grid


def cosine(a: Pattern | np.ndarray, b: Pattern | np.ndarray, *, na: float | None = None) -> float:
    """Cosine similarity; 0.0 when either vector is all-zero.

    Equals 1 exactly when the two vectors are positive multiples of each
    other, which is what recall-quality metrics rely on.  ``na``, if given, is a's norm.
    """
    va = a.values if isinstance(a, Pattern) else np.asarray(a, dtype=float)
    vb = b.values if isinstance(b, Pattern) else np.asarray(b, dtype=float)
    if va.shape != vb.shape:
        raise ShapeMismatchError(f"cosine over mismatched shapes {va.shape} vs {vb.shape}")
    na = math.sqrt(float(np.dot(va, va))) if na is None else na
    nb = math.sqrt(float(np.dot(vb, vb)))
    if na <= NORM_EPS or nb <= NORM_EPS:
        return 0.0
    return float(np.dot(va, vb) / (na * nb))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def gaussian_1d(
    n: int,
    center: float,
    sigma: float,
    *,
    wrap: bool = False,
    label: str | None = None,
) -> Pattern:
    """Unit-norm Gaussian bump on a line of ``n`` cells.

    Args:
        n: number of cells, >= 1.
        center: bump location in cell coordinates (may be fractional).
        sigma: width in cells, > 0.
        wrap: use circular distance to the center, making the generator
            exactly covariant under periodic index shifts.
        label: optional template label.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if sigma <= 0.0:
        raise ParameterError(f"sigma must be > 0, got {sigma}")
    x = np.arange(n, dtype=float)
    if wrap:
        d = np.abs((x - center) % n)
        d = np.minimum(d, n - d)
    else:
        d = x - center
    g = np.exp(-0.5 * (d / sigma) ** 2)
    return Pattern(_unit(g), grid=None, label=label)


def gaussian_2d(
    rows: int,
    cols: int,
    center_x: float,
    center_y: float,
    sigma_x: float,
    sigma_y: float,
    *,
    label: str | None = None,
) -> Pattern:
    """Unit-norm separable Gaussian bump on a rows x cols grid.

    ``x`` runs along columns and ``y`` along rows, so the peak of a bump
    centered at integer coordinates sits at entry (center_y, center_x) of
    the grid, flat index ``center_y * cols + center_x``.
    """
    if rows < 1 or cols < 1:
        raise ParameterError(f"grid sides must be >= 1, got {rows}x{cols}")
    if sigma_x <= 0.0 or sigma_y <= 0.0:
        raise ParameterError(f"sigmas must be > 0, got ({sigma_x}, {sigma_y})")

    def axis_profile(size: int, center: float, sigma: float) -> np.ndarray:
        d = np.arange(size, dtype=float) - center
        return np.exp(-0.5 * (d / sigma) ** 2)

    gx = axis_profile(cols, center_x, sigma_x)
    gy = axis_profile(rows, center_y, sigma_y)
    g = np.outer(gy, gx).ravel()
    return Pattern(_unit(g), grid=(rows, cols), label=label)


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------

def add_noise(p: Pattern, level: float, seed: int) -> Pattern:
    """Add iid zero-mean Gaussian noise (std = level), clamp at 0, renormalize.

    level = 0 returns the input unchanged.  The perturbation is exactly
    ``default_rng(seed).normal(0, level, n)``, which keeps the operation
    reproducible for a fixed seed.
    """
    if level < 0.0:
        raise ParameterError(f"noise level must be >= 0, got {level}")
    if level == 0.0:
        return p
    rng = np.random.default_rng(seed)
    noisy = p.values + rng.normal(0.0, level, p.n)
    np.clip(noisy, 0.0, None, out=noisy)
    return Pattern(_unit(noisy), grid=p.grid, label=p.label)


def fuse(p1: Pattern, p2: Pattern, w1: float, w2: float) -> Pattern:
    """Entrywise weighted sum of two same-layout patterns, renormalized."""
    if not p1.same_layout(p2):
        raise ShapeMismatchError(
            f"cannot fuse layouts n={p1.n}/grid={p1.grid} and n={p2.n}/grid={p2.grid}"
        )
    if w1 < 0.0 or w2 < 0.0 or (w1 == 0.0 and w2 == 0.0):
        raise ParameterError(f"fusion weights must be >= 0 and not both zero, got ({w1}, {w2})")
    return Pattern(_unit(w1 * p1.values + w2 * p2.values), grid=p1.grid)


def mask(p: Pattern, masked_indices: Iterable[int]) -> Pattern:
    """Zero the listed entries and renormalize.

    An empty index set returns the input unchanged.  Masking away every
    nonzero entry raises PatternAnnihilatedError.
    """
    return _mask(p, masked_indices)[0]


def _mask(p: Pattern, indices: Iterable[int]) -> tuple[Pattern, set[int]]:
    """``mask`` and the set of int(i) it read; a 1D integer array's ``tolist`` gives those ints 4x faster."""
    fast = isinstance(indices, np.ndarray) and indices.ndim == 1 and indices.dtype.kind in "iu"
    masked = set(indices.tolist() if fast else map(int, indices))
    if not masked:
        return p, masked
    low, high = min(masked), max(masked)
    if low < 0 or high >= p.n:
        raise ParameterError(f"mask indices out of range for n={p.n}: {low}..{high}")
    out = p.values.copy()
    out[np.fromiter(masked, np.intp, len(masked))] = 0.0
    return Pattern._wrap(_unit(out), p.grid, p.label), masked  # a checked pattern's copy, renormalised


# ---------------------------------------------------------------------------
# active set
# ---------------------------------------------------------------------------

def active_set(p: Pattern, threshold: float) -> np.ndarray:
    """Sorted indices with activity strictly above ``threshold`` (>= 0)."""
    if threshold < 0.0:
        raise ParameterError(f"threshold must be >= 0, got {threshold}")
    return (p.values > threshold).nonzero()[0]


def relative_threshold(p: Pattern, fraction: float) -> float:
    """Threshold at ``fraction`` of the peak entry (0 for an all-zero pattern)."""
    if fraction < 0.0:
        raise ParameterError(f"fraction must be >= 0, got {fraction}")
    return fraction * float(p.values.max())


# ---------------------------------------------------------------------------
# file IO
# ---------------------------------------------------------------------------

def read_text(path: str | Path) -> str:
    """The text of a file; one that does not decode is a FormatError naming it."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise FormatError(f"cannot decode {path}: {exc}") from exc


def format_cell(value: object) -> str:
    """One cell of a run table or report: floats by repr, everything else by str."""
    return repr(value) if isinstance(value, float) else str(value)


def write_table(path: str | Path, header: Sequence[object], rows: Iterable[Sequence[object]]) -> None:
    """A comma-separated header line, then one line per row, cells by ``format_cell``."""
    lines = [",".join(map(format_cell, header))]
    lines.extend(",".join(map(format_cell, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def write_grid_csv(path: str | Path, sizes: Sequence[int], table: np.ndarray) -> None:
    """Numeric-grid CSV: a header line of int sizes, then rows of ``FLOAT_FMT`` floats."""
    write_table(path, sizes, ([FLOAT_FMT % x for x in row] for row in table))


def read_grid_csv(path: str | Path, kind: str, n_sizes: int) -> np.ndarray:
    """Read a numeric-grid CSV whose header holds ``n_sizes`` positive ints:
    the row count first, the column count last (one size for a square
    matrix).  ``kind`` names the file in messages."""
    lines = [ln.strip() for ln in read_text(path).splitlines() if ln.strip()]
    if not lines:
        raise FormatError(f"empty {kind} file: {path}")
    try:
        sizes = [int(f) for f in lines[0].split(",")]
    except ValueError:
        sizes = []
    if len(sizes) != n_sizes:
        raise FormatError(f"malformed {kind} header {lines[0]!r} in {path}")
    if min(sizes) < 1:
        raise FormatError(f"non-positive {kind} size {lines[0]!r} in {path}")
    rows, cols = sizes[0], sizes[-1]
    if len(lines) - 1 != rows:
        raise ShapeMismatchError(f"{path}: header says {rows} rows, file has {len(lines) - 1}")
    values = []
    for ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != cols:
            raise ShapeMismatchError(f"{path}: header says {cols} cols, row has {len(fields)}")
        try:
            values.append([float(f) for f in fields])
        except ValueError as exc:
            raise FormatError(f"non-numeric value in {path}: {ln!r}") from exc
    return np.array(values)


def save_pattern_csv(p: Pattern, path: str | Path) -> None:
    """Write the ``rows,cols`` header then the grid values, row-major."""
    table = p.as_grid()
    write_grid_csv(path, table.shape, table)


def load_pattern_csv(path: str | Path) -> Pattern:
    """Load a pattern CSV; the result is renormalized."""
    table = read_grid_csv(path, "pattern", 2)
    if np.any(table < 0.0):
        raise FormatError(f"negative activity value in {path}")
    return Pattern(_unit(table.ravel()), grid=table.shape)


def save_pgm(p: Pattern, path: str | Path) -> None:
    """Write an 8-bit binary PGM; values are scaled so the peak maps to 255
    (all-zero pattern -> black, as a recall wiped out by inhibition gives)."""
    grid = p.as_grid()
    peak = float(grid.max())
    scaled = np.zeros_like(grid) if peak <= 0.0 else grid / peak
    write_p5(np.rint(scaled * 255.0).astype(np.uint8), path)


def write_p5(pixels: np.ndarray, path: str | Path) -> None:
    """Write a 2D uint8 raster as a binary (P5) PGM with maxval 255."""
    rows, cols = pixels.shape
    Path(path).write_bytes(f"P5\n{cols} {rows}\n255\n".encode("ascii") + pixels.tobytes())


def _pgm_header_tokens(data: bytes, path: str | Path) -> tuple[list[int], int]:
    """Parse magic-trailing header ints (width, height, maxval), skipping comments.

    Returns the three ints and the offset where pixel data starts.
    """
    pos = 2  # past the magic
    tokens: list[int] = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        tok = data[start:pos]
        if not tok:
            raise FormatError(f"truncated PGM header in {path}")
        try:
            tokens.append(int(tok))
        except ValueError as exc:
            raise FormatError(f"non-numeric PGM header token {tok!r} in {path}") from exc
    return tokens, pos + 1  # single whitespace byte separates header from raster


def load_image(path: str | Path) -> Pattern:
    """Load a PGM (P2/P5) or pattern CSV; grayscale goes to [0,1], then unit norm.

    A P2 file's ``#`` comments run to the end of any line, raster included.
    """
    data = Path(path).read_bytes()
    if not data:
        raise FormatError(f"empty image file: {path}")
    magic = data[:2]
    if magic == b"P2":
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"P2 file is not ASCII: {path}") from exc
        fields = [tok for ln in text.splitlines() for tok in ln.split("#", 1)[0].split()]
        data = " ".join(["P2", *fields[1:]]).encode()  # fields[0] is the magic
    elif magic != b"P5":
        return load_pattern_csv(path)
    (cols, rows, maxval), offset = _pgm_header_tokens(data, path)
    if maxval < 1 or maxval > 255:
        raise FormatError(f"unsupported PGM maxval {maxval} in {path} (8-bit only)")
    if magic == b"P5":
        raster = np.frombuffer(data[offset : offset + rows * cols], dtype=np.uint8).astype(float)
    else:
        try:
            raster = np.asarray([int(tok) for tok in data[offset:].split()], dtype=float)
        except ValueError as exc:
            raise FormatError(f"non-numeric token in P2 file {path}") from exc
    if len(raster) != rows * cols:
        raise ShapeMismatchError(f"{path}: PGM raster has {len(raster)} samples, header implies {rows * cols}")
    return Pattern(_unit(raster / float(maxval)), grid=(rows, cols))


def save_image(p: Pattern, path: str | Path) -> None:
    """Dispatch on extension: .pgm writes binary PGM, .csv writes pattern CSV."""
    suffix = Path(path).suffix.lower()
    if suffix == ".pgm":
        save_pgm(p, path)
    elif suffix == ".csv":
        save_pattern_csv(p, path)
    else:
        raise ParameterError(f"unsupported image extension {suffix!r} (use .pgm or .csv)")
