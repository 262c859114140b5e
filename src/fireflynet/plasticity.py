"""Competitive weight dynamics under the Haeussler growth rule.

Each incoming weight w_ij evolves under two opposing pressures: a decay
term alpha * (1 - N w_ij) that pulls every connection toward the uniform
level 1/N, and a cooperation term beta * w_ij * (T_ij - sum_j' w_ij' T_ij')
that grows connections whose source correlation beats the row's weighted
average and shrinks the rest.  The cooperation term redistributes weight
within a row (soft competition) and drives row sums toward 1.

Growth is bounded by a hard saturation ceiling v.  Integration is
forward Euler, clamping into [0, v] after every step, so the excitatory
range is invariant under evolution and a weight driven past v is held
at v.  The step is STEP_FRACTION of the stability bound that the
presentation's tensor allows, and evolution runs until the weights stop
moving: the learned state is the rule's fixed point, not a transient cut
off by the step budget.  A row can have several fixed points, the
saturated corner (every weight at v) among them, and which one Euler
reaches depends on where it starts.  A presentation solves for its rows'
fixed points first (``row_fixed_points``), and Euler only polishes that,
in one step on every presentation of the shipped experiments.  The solve
and each Euler step run in the C kernel (``kernel.load_kernel``), so both
need a C compiler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import WeightMatrix
from .errors import ParameterError, ShapeMismatchError, require_integer
from .kernel import load_kernel
from .patterns import write_table

# The share of the stability bound 1 / (alpha * n + beta * max|T|) that a
# derived Euler step takes.
STEP_FRACTION = 0.9


@dataclass(frozen=True)
class PlasticityParams:
    """Rule constants plus integration controls.

    Each evolution derives its Euler step from its tensor, STEP_FRACTION
    of the stability bound (see ``step``).  max_steps caps the Euler
    steps of one evolution; at the derived step 1,000 lets more than 99%
    of presentations reach quiescence.
    """

    alpha: float = 0.01
    beta: float = 1.0
    v: float = 0.5
    max_steps: int = 1000
    tol: float = 1e-6

    def __post_init__(self) -> None:
        require_integer("max_steps", self.max_steps)
        if not (0.0 <= self.alpha < math.inf and 0.0 <= self.beta < math.inf):
            raise ParameterError(f"alpha and beta must be finite and >= 0, got ({self.alpha}, {self.beta})")
        if not 0.0 < self.v < math.inf:
            raise ParameterError(f"saturation ceiling v must be finite and > 0, got {self.v}")
        if self.max_steps < 1:
            raise ParameterError(f"max_steps must be >= 1, got {self.max_steps}")
        if not 0.0 < self.tol < math.inf:
            raise ParameterError(f"tol must be finite and > 0, got {self.tol}")

    def step(self, n: int, t: np.ndarray) -> float:
        """The Euler step for n cells under the tensor t:
        STEP_FRACTION / (alpha * n + beta * max|T|), which keeps
        dt * (alpha * n + beta * max T) < 1 and so the linearized update
        contractive; max|T| is max T for the positive semi-definite
        tensors that ``correlation_tensor`` makes.  Where that denominator
        is 0 (or so small that the quotient overflows) the rate is
        identically zero (or below resolution) and the step is 1.
        """
        return self._step(n, float(np.absolute(t).max()) if t.size else 0.0)

    def _step(self, n: int, peak: float) -> float:  # step of a tensor whose max|T| is peak
        rate = self.alpha * n + self.beta * peak
        dt = STEP_FRACTION / rate if rate > 0.0 else 1.0
        return dt if math.isfinite(dt) else 1.0


def haeussler_rhs(w: WeightMatrix, t: np.ndarray, params: PlasticityParams) -> np.ndarray:
    """Growth rate f(w_ij) for every connection; diagonal forced to zero.

    f(w_ij) = alpha * (1 - n * w_ij)
            + beta * w_ij * (T_ij - sum_{j' != i} w_ij' * T_ij')

    The j' sum skips the diagonal, which costs nothing here because the
    weight diagonal is pinned at zero.  The rate is the one the kernel's
    Euler step takes (see ``evolve_weights``).
    """
    _check_sizes(w, t)
    n, ww, tt = w.n, np.ascontiguousarray(w.w), np.ascontiguousarray(t, dtype=float)
    f, following, stats = np.empty((n, n)), np.empty((n, n)), np.empty(n + 4)
    load_kernel().euler_step(ww, tt, f, following, stats, n, params.alpha, params.beta, 0.0, params.v)
    return f


def _check_sizes(w: WeightMatrix, t: np.ndarray) -> None:
    if t.shape != w.w.shape:
        raise ShapeMismatchError(f"weights are {w.n}x{w.n} but tensor is {t.shape}")


@dataclass
class EvolveReport:
    """What happened during one evolution run.

    ``table`` holds one row per Euler step run: (max |rhs|, min row sum,
    mean row sum, max row sum), as one float array, which keeps every
    presentation's record in a model's history compact; ``trace`` gives
    the same rows as tuples headed by the step number.
    A run that exhausts max_steps without meeting the tolerance is a
    meaningful partial result, not an error; ``converged`` says which.
    """

    steps: int = 0
    converged: bool = False
    final_max_rhs: float = 0.0
    table: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))

    @property
    def trace(self) -> list[tuple[int, float, float, float, float]]:
        return [(k, *row) for k, row in enumerate(self.table.tolist(), start=1)]

    def save_trace_csv(self, path: str | Path) -> None:
        header = ("step", "max_rhs", "min_row_sum", "mean_row_sum", "max_row_sum")
        write_table(path, header, self.trace)


def evolve_weights(
    w: WeightMatrix, t: np.ndarray, params: PlasticityParams
) -> tuple[WeightMatrix, EvolveReport]:
    """Integrate the rule until quiescence or the step budget runs out.

    The Euler step comes from ``PlasticityParams.step``: STEP_FRACTION
    of the stability bound for this tensor.  Convergence criterion: the
    largest actual weight change in a step falls below tol * dt.  Weights
    are clamped into [0, v] after every step, so the returned matrix
    always satisfies the excitatory range invariant regardless of where
    the integration stopped.

    Each step is one call to the C kernel, which returns the bits of the
    numpy loop in ``tests/oracles.py``.
    """
    _check_sizes(w, t)
    if (w.w < 0.0).any() or (w.w > params.v).any():
        raise ParameterError("evolution requires starting weights within [0, v]")
    peak = float(np.absolute(t).max())  # non-finite exactly when an entry is
    if not math.isfinite(peak):
        raise ParameterError("correlation tensor entries must be finite")
    n, dt = w.n, params._step(w.n, peak)
    tt, f, stats, rows = np.ascontiguousarray(t, dtype=float), np.empty((n, n)), np.empty(n + 4), []
    euler, rule = load_kernel().euler_step, (n, params.alpha, params.beta, dt, params.v)
    current = np.ascontiguousarray(w.w)
    for _ in range(params.max_steps):
        previous, current = current, np.empty((n, n))
        change = euler(previous, tt, f, current, stats, *rule)
        rows.append(stats[:4].tolist())  # stats: the trace row, then the row sums
        converged = change < params.tol * dt
        if converged:
            break
    return WeightMatrix._wrap(current), EvolveReport(len(rows), converged, rows[-1][0], np.array(rows))


def row_fixed_points(w: WeightMatrix, t: np.ndarray, params: PlasticityParams) -> WeightMatrix:
    """Each row's fixed point of the clamped rule, searched for from w.

    With lambda_i = sum_{j != i} w_ij T_ij and c_ij = n alpha + beta (lambda_i - T_ij),
    a row is at rest when w_ij = min(v, alpha / c_ij), or v where c_ij <= 0, and
    lambda_i is a root of g_i(lam) = sum_{j != i} w_ij(lam) T_ij - lam.  A row can
    have several roots, the saturated corner among them, and which one Euler
    reaches depends on its start.  So each row starts at w's own lambda and
    steps toward the sign of g, from |g| / 8 and doubling, within
    v * sum T- <= lam <= v * sum T+, until g changes sign; Illinois regula falsi
    then closes the bracket, row by row in the C kernel, which returns the bits
    of the numpy search in ``tests/oracles.py``.  A weight's rate is at most
    beta * v * |g_i|, so the search stops at |g_i| <= tol / (2 beta v), where
    ``evolve_weights`` from the result is quiescent at its first step.  With
    alpha = 0 no point is fixed (Euler holds a zero weight at zero): w is returned.
    """
    _check_sizes(w, t)
    if not np.all(np.isfinite(t)):
        raise ParameterError("correlation tensor entries must be finite")
    alpha, beta, v = params.alpha, params.beta, params.v
    if alpha == 0.0:
        return w
    tol = 0.5 * params.tol / (beta * v) if beta * v > 0.0 else math.inf
    ww, tt, out = np.ascontiguousarray(w.w), np.ascontiguousarray(t, dtype=float), np.empty((w.n, w.n))
    if load_kernel().row_fixed_points(ww, tt, out, w.n, alpha, beta, v, tol):
        raise MemoryError(f"no memory for the fixed points of {w.n} weight rows")
    return WeightMatrix._wrap(out)
