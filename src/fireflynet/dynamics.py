"""Linear network response: the three-hop response operator and source
correlations.

The layer's response to a source vector s is D s, with the paper's
three-hop response operator D = I + W + W^2 + W^3 (paths of up to three
synapses); every model trains and recalls with D as it is.  When q, the
max absolute row sum, is below 1, D is also the third-order truncation
of (I - W)^-1 with error at most q^4/(1-q) in the infinity norm; trained
swarm models have q >= 1, where that bound does not apply.  Once W's
spectral radius reaches 1 the full series diverges, and D approximates
no equilibrium at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParameterError
from .patterns import read_grid_csv, write_grid_csv, write_p5


@dataclass(frozen=True)
class WeightMatrix:
    """Square lateral-coupling matrix with a hard zero diagonal.

    ``w`` is read-only: the constructor keeps a private copy when it was
    handed a float array (the caller's array stays writable), so the
    memoised ``resolvent`` always belongs to these weights.  Arrays the
    library builds from checked weights go through ``_wrap`` instead.
    """

    w: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.w, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ParameterError(f"weight matrix must be square and non-empty, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ParameterError("weight matrix entries must be finite")
        if np.any(np.diagonal(a) != 0.0):
            raise ParameterError("weight matrix diagonal must be exactly zero")
        if a is self.w:
            a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "w", a)

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "WeightMatrix":
        """A fresh array the library built from checked weights, made read-only: no check, no copy."""
        a.flags.writeable = False
        m = object.__new__(cls)
        object.__setattr__(m, "w", a)
        return m

    @cached_property
    def resolvent(self) -> np.ndarray:
        """D of these weights, computed on first use and kept read-only."""
        d = truncated_resolvent(self)
        d.flags.writeable = False
        return d

    @property
    def n(self) -> int:
        return int(self.w.shape[0])

    def positive_part(self) -> np.ndarray:
        return np.maximum(self.w, 0.0)

    def negative_part(self) -> np.ndarray:
        return np.minimum(self.w, 0.0)


def truncated_resolvent(w: WeightMatrix) -> np.ndarray:
    """D = I + W + W^2 + W^3, computed fresh from the given weights."""
    a = w.w
    a2 = a @ a
    return np.eye(w.n) + a + a2 + a2 @ a


def correlation_tensor(d: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Pairwise response correlations induced by a set of unit sources.

    T[i, j] = sum over sources k in the set of D[i, k] * D[j, k]: the
    correlation of responses at i and j when every cell of the source set
    (an int index array) fires independently with unit strength.
    Symmetric and positive semidefinite by construction.  An empty source
    set is legal and gives the all-zeros tensor.
    """
    n = d.shape[0]
    if len(sources) == 0:
        return np.zeros((n, n))
    if sources.min() < 0 or sources.max() >= n:
        raise ParameterError(f"source indices out of range for n={n}: {sources.min()}..{sources.max()}")
    cols = d[:, sources]
    return cols @ cols.T


# ---------------------------------------------------------------------------
# matrix file IO (shared by weights, resolvents, tensors)
# ---------------------------------------------------------------------------

def save_matrix_csv(a: np.ndarray, path: str | Path) -> None:
    """First line n, then n rows of n comma-separated reals."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"matrix CSV requires a square matrix, got {m.shape}")
    write_grid_csv(path, m.shape[:1], m)


def load_matrix_csv(path: str | Path) -> np.ndarray:
    return read_grid_csv(path, "matrix", 1)


def save_matrix_pgm(a: np.ndarray, path: str | Path) -> None:
    """Render a matrix as an 8-bit PGM, min-max scaled (flat matrix -> black)."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ParameterError(f"matrix render requires 2D input, got shape {m.shape}")
    lo, hi = float(m.min()), float(m.max())
    scaled = np.zeros_like(m) if hi <= lo else (m - lo) / (hi - lo)
    write_p5(np.rint(scaled * 255.0).astype(np.uint8), path)
