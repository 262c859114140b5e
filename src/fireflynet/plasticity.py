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

from .dynamics import CorrelationTensor, WeightMatrix
from .errors import ParameterError, ShapeMismatchError

DEFAULT_ALPHA = 0.01
DEFAULT_BETA = 1.0
DEFAULT_V = 0.5
DEFAULT_DT = 0.01
DEFAULT_MAX_STEPS = 400
DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class PlasticityParams:
    """Rule constants plus integration controls for a network of n cells.

    The Euler step must satisfy dt * (alpha * n + beta * max T) < 1 to
    keep the linearized update contractive; the part that depends on the
    correlation tensor is checked when evolution starts, the rest here.
    """

    n: int
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    v: float = DEFAULT_V
    dt: float = DEFAULT_DT
    max_steps: int = DEFAULT_MAX_STEPS
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
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
        if self.dt * self.alpha * self.n >= 1.0:
            raise ParameterError(
                f"unstable step: dt*alpha*n = {self.dt * self.alpha * self.n:g} >= 1"
            )

    def check_stability(self, t_max: float) -> None:
        """Full stability guard once the tensor's peak entry is known."""
        margin = self.dt * (self.alpha * self.n + self.beta * max(t_max, 0.0))
        if margin >= 1.0:
            raise ParameterError(
                f"unstable step: dt*(alpha*n + beta*maxT) = {margin:g} >= 1; reduce dt"
            )


def haeussler_rhs(w: WeightMatrix, t: CorrelationTensor, params: PlasticityParams) -> np.ndarray:
    """Growth rate f(w_ij) for every connection; diagonal forced to zero.

    f(w_ij) = alpha * (1 - n * w_ij)
            + beta * w_ij * (T_ij - sum_{j' != i} w_ij' * T_ij')

    The j' sum skips the diagonal, which costs nothing here because the
    weight diagonal is pinned at zero.
    """
    _check_sizes(w, t, params)
    return _rate(w.w, t.t, params)


def _check_sizes(w: WeightMatrix, t: CorrelationTensor, params: PlasticityParams) -> None:
    if w.n != t.n:
        raise ShapeMismatchError(f"weights are {w.n}x{w.n} but tensor is {t.n}x{t.n}")
    if w.n != params.n:
        raise ShapeMismatchError(f"params sized for n={params.n}, weights for n={w.n}")


def _rate(ww: np.ndarray, tt: np.ndarray, params: PlasticityParams) -> np.ndarray:
    row_coop = np.sum(ww * tt, axis=1, keepdims=True)  # sum_j' w_ij' T_ij'
    f = params.alpha * (1.0 - params.n * ww) + params.beta * ww * (tt - row_coop)
    np.fill_diagonal(f, 0.0)
    return f


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

    def to_text(self) -> str:
        return (
            f"steps = {self.steps}\n"
            f"converged = {str(self.converged).lower()}\n"
            f"final_max_rhs = {self.final_max_rhs!r}\n"
        )

    def save_trace_csv(self, path: str | Path) -> None:
        lines = ["step,max_rhs,min_row_sum,mean_row_sum,max_row_sum"]
        for step, max_rhs, lo, mean, hi in self.trace:
            lines.append(f"{step},{max_rhs!r},{lo!r},{mean!r},{hi!r}")
        Path(path).write_text("\n".join(lines) + "\n")


def evolve_weights(
    w: WeightMatrix, t: CorrelationTensor, params: PlasticityParams
) -> tuple[WeightMatrix, EvolveReport]:
    """Integrate the rule until quiescence or the step budget runs out.

    Convergence criterion: the largest actual weight change in a step
    falls below tol * dt.  Weights are clamped into [0, v] after every
    step, so the returned matrix always satisfies the excitatory range
    invariant regardless of where the integration stopped.
    """
    _check_sizes(w, t, params)
    if np.any(w.w < 0.0) or np.any(w.w > params.v):
        raise ParameterError("evolution requires starting weights within [0, v]")
    params.check_stability(float(t.t.max()) if t.t.size else 0.0)

    current = w.w.copy()
    report = EvolveReport()
    for step in range(1, params.max_steps + 1):
        f = _rate(current, t.t, params)
        proposed = np.clip(current + params.dt * f, 0.0, params.v)
        np.fill_diagonal(proposed, 0.0)
        delta = float(np.abs(proposed - current).max())
        current = proposed

        row_sums = current.sum(axis=1)
        max_rhs = float(np.abs(f).max())
        report.trace.append(
            (step, max_rhs, float(row_sums.min()), float(row_sums.mean()), float(row_sums.max()))
        )
        report.steps = step
        report.final_max_rhs = max_rhs
        if delta < params.tol * params.dt:
            report.converged = True
            break
    return WeightMatrix(current), report
