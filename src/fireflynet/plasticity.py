"""Competitive weight dynamics under the Haeussler growth rule.

Each incoming weight w_ij evolves under two opposing pressures: a decay
term alpha * (1 - N w_ij) that pulls every connection toward the uniform
level 1/N, and a cooperation term beta * w_ij * (T_ij - sum_j' w_ij' T_ij')
that grows connections whose source correlation beats the row's weighted
average and shrinks the rest.  The cooperation term redistributes weight
within a row (soft competition) and drives row sums toward 1.

Growth is bounded by a hard saturation ceiling v.  Integration is
forward Euler with a fixed step, clamping into [0, v] after every step,
so the excitatory range is invariant under evolution and a weight
driven past v is held at v.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import WeightMatrix
from .errors import ParameterError, ShapeMismatchError
from .patterns import write_table

@dataclass(frozen=True)
class PlasticityParams:
    """Rule constants plus integration controls; n is the network size.

    The Euler step must satisfy dt * (alpha * n + beta * max T) < 1 to
    keep the linearized update contractive; ``check_stability`` tests it
    once n and the correlation tensor's peak are known.
    """

    alpha: float = 0.01
    beta: float = 1.0
    v: float = 0.5
    dt: float = 0.01
    max_steps: int = 400
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ParameterError(f"alpha and beta must be >= 0, got ({self.alpha}, {self.beta})")
        if self.v <= 0.0:
            raise ParameterError(f"saturation ceiling v must be > 0, got {self.v}")
        if self.dt <= 0.0:
            raise ParameterError(f"dt must be > 0, got {self.dt}")
        if self.max_steps < 1:
            raise ParameterError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.tol <= 0.0:
            raise ParameterError(f"tol must be > 0, got {self.tol}")

    def check_stability(self, n: int, t_max: float) -> None:
        """Stability guard for n cells and a tensor whose peak entry is t_max."""
        margin = self.dt * (self.alpha * n + self.beta * max(t_max, 0.0))
        if margin >= 1.0:
            raise ParameterError(
                f"unstable step: dt*(alpha*n + beta*maxT) = {margin:g} >= 1; reduce dt"
            )


def haeussler_rhs(w: WeightMatrix, t: np.ndarray, params: PlasticityParams) -> np.ndarray:
    """Growth rate f(w_ij) for every connection; diagonal forced to zero.

    f(w_ij) = alpha * (1 - n * w_ij)
            + beta * w_ij * (T_ij - sum_{j' != i} w_ij' * T_ij')

    The j' sum skips the diagonal, which costs nothing here because the
    weight diagonal is pinned at zero.
    """
    _check_sizes(w, t)
    n = w.n
    f = np.empty((n, n))
    _rate_into(f, w.w, t, params, np.empty((n, n)), np.empty((n, n)), np.empty((n, 1)))
    return f


def _check_sizes(w: WeightMatrix, t: np.ndarray) -> None:
    if t.shape != w.w.shape:
        raise ShapeMismatchError(f"weights are {w.n}x{w.n} but tensor is {t.shape}")


def _rate_into(
    f: np.ndarray,
    ww: np.ndarray,
    tt: np.ndarray,
    params: PlasticityParams,
    coop: np.ndarray,
    gap: np.ndarray,
    row_coop: np.ndarray,
) -> None:
    """Write the rate into the contiguous n x n buffer f, allocating nothing.

    coop and gap (n x n) and row_coop (n x 1) are scratch.  The ops run
    in the grouping alpha * (1 - n * w) + (beta * w) * (T - row_coop),
    rows summed along the contiguous axis, which fixes the result bits.
    """
    n = ww.shape[0]
    np.multiply(ww, tt, out=coop)
    np.add.reduce(coop, axis=1, keepdims=True, out=row_coop)  # sum_j' w_ij' T_ij'
    np.multiply(n, ww, out=f)
    np.subtract(1.0, f, out=f)
    np.multiply(params.alpha, f, out=f)
    np.multiply(params.beta, ww, out=coop)
    np.subtract(tt, row_coop, out=gap)
    np.multiply(coop, gap, out=coop)
    np.add(f, coop, out=f)
    f.reshape(-1)[:: n + 1] = 0.0  # the diagonal, as a strided view


@dataclass
class EvolveReport:
    """What happened during one evolution run.

    ``trace`` holds one row per Euler step:
    (step, max |rhs|, min row sum, mean row sum, max row sum).
    A run that exhausts max_steps without meeting the tolerance is a
    meaningful partial result, not an error; ``converged`` says which.
    """

    steps: int = 0
    converged: bool = False
    final_max_rhs: float = 0.0
    trace: list[tuple[int, float, float, float, float]] = field(default_factory=list)

    def save_trace_csv(self, path: str | Path) -> None:
        header = ("step", "max_rhs", "min_row_sum", "mean_row_sum", "max_row_sum")
        write_table(path, header, self.trace)


def evolve_weights(
    w: WeightMatrix, t: np.ndarray, params: PlasticityParams
) -> tuple[WeightMatrix, EvolveReport]:
    """Integrate the rule until quiescence or the step budget runs out.

    Convergence criterion: the largest actual weight change in a step
    falls below tol * dt.  Weights are clamped into [0, v] after every
    step, so the returned matrix always satisfies the excitatory range
    invariant regardless of where the integration stopped.

    The step allocates nothing: the current and next weights ping-pong
    between two buffers, three more n x n work buffers are made once per
    call, and each step's row sums and max |f| land in preallocated
    arrays that the trace is built from after the loop.  The rate keeps
    the grouping alpha * (1 - n * w) + (beta * w) * (T - row_coop) op
    for op (see ``_rate_into``), the clamp is max with 0 then min with v,
    and the trace's mean row sum is the row-sum vector's pairwise sum
    over n, as numpy's mean computes it; that order fixes the result
    bits that the byte-determinism checks compare.
    """
    _check_sizes(w, t)
    if np.any(w.w < 0.0) or np.any(w.w > params.v):
        raise ParameterError("evolution requires starting weights within [0, v]")
    if not np.all(np.isfinite(t)):
        raise ParameterError("correlation tensor entries must be finite")
    params.check_stability(w.n, float(t.max()) if t.size else 0.0)

    n, tt = w.n, t
    dt, v = params.dt, params.v
    threshold = params.tol * dt
    current = w.w.copy()
    upcoming = np.empty_like(current)
    f = np.empty_like(current)  # the rate, then |f|
    coop = np.empty_like(current)  # w * T, then the cooperation term, then dt * f
    gap = np.empty_like(current)  # T - row_coop, then |next - current|
    row_coop = np.empty((n, 1))
    row_sums = np.empty((params.max_steps, n))
    peaks = np.empty(params.max_steps)
    # the diagonals as strided views: every (n+1)-th element of the flat buffer
    current_diag = current.reshape(-1)[:: n + 1]
    upcoming_diag = upcoming.reshape(-1)[:: n + 1]

    steps, converged = params.max_steps, False
    for k in range(params.max_steps):
        _rate_into(f, current, tt, params, coop, gap, row_coop)
        np.multiply(dt, f, out=coop)
        np.add(current, coop, out=upcoming)
        np.maximum(upcoming, 0.0, out=upcoming)
        np.minimum(upcoming, v, out=upcoming)
        upcoming_diag.fill(0.0)
        np.subtract(upcoming, current, out=gap)
        np.absolute(gap, out=gap)
        delta = np.maximum.reduce(gap, axis=None)
        current, upcoming = upcoming, current
        current_diag, upcoming_diag = upcoming_diag, current_diag

        np.add.reduce(current, axis=1, out=row_sums[k])
        np.absolute(f, out=f)
        peaks[k] = np.maximum.reduce(f, axis=None)
        if delta < threshold:
            steps, converged = k + 1, True
            break

    sums = row_sums[:steps]
    max_rhs = peaks[:steps].tolist()
    columns = (sums.min(axis=1), sums.sum(axis=1) / n, sums.max(axis=1))
    trace = list(zip(range(1, steps + 1), max_rhs, *(c.tolist() for c in columns)))
    return WeightMatrix(current), EvolveReport(steps, converged, max_rhs[-1], trace)
