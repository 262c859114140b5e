"""Firefly swarm that lays out excitatory/inhibitory topology.

A population of point agents lives in the unit square over the cell
grid.  Each agent's brightness is the activity of its nearest cell;
agents drift toward brighter ones with a distance-decaying attraction
b * exp(-gamma * r^2) plus a small uniform jitter, then a settling pass
pushes any pair closer than d_min apart.  After some steps the swarm
clusters around active cells, and a signed coupling matrix is read off:
excitatory agents near a cell contribute positive weight to it, the
inhibitory minority contributes negative weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .dynamics import WeightMatrix
from .errors import FormatError, ParameterError, ShapeMismatchError
from .patterns import FLOAT_FMT, Pattern, read_text, write_table

# Settling passes before giving up on the spacing constraint, the slack
# under d_min that counts as satisfied (pushes below this fall under
# floating-point resolution near the middle of the unit square), and the
# overshoot past d_min each split aims for.  Pushing exactly to d_min
# approaches the constraint geometrically and never terminates; the 5%
# margin makes each violation resolve in one shove.  The settle scatters
# pushes in row-major i<j pair order: the order of accumulation decides the
# output bits the determinism checks compare.
MAX_SETTLE_SWEEPS = 100
SETTLE_EPS = 1e-9
SETTLE_OVERSHOOT = 1.05
# Width, in units of d_min, of the margin past too_close within which the
# settle's neighbour list keeps pairs (a Verlet list); any width gives the
# same bits, the width only trades list rebuilds against listed pairs.
SETTLE_SKIN = 2.0
# A pair's push enters the scatter negated at its lower-index end and as
# is at its higher (negation is exact); no agent moves further in a sweep
# than sqrt(2) times the sweep's largest coordinate move.
_PUSH_SIGNS = np.array([-1.0, 1.0]).reshape(2, 1, 1)
_SQRT2 = math.sqrt(2.0)


@lru_cache(maxsize=None)
def _pair_bins(count: int) -> np.ndarray:
    """(4, P) rows [i, i+F, j, j+F] of the i<j pairs of F = count agents in
    row-major order: each pair's x and y bins at its lower-index end, then
    at its higher, in positions held flat as x then y."""
    ii, jj = np.triu_indices(count, k=1)
    return np.stack([ii, ii + count, jj, jj + count])


@dataclass(frozen=True)
class SwarmParams:
    """Swarm movement and sizing knobs.

    ``kernel_pitches``, ``inhib_pitches`` and ``inhibition_gain`` shape
    the coupling matrix that ``synthesize_weights`` reads off the swarm.
    """

    b: float = 1.0
    gamma: float = 4.0
    eta: float = 0.05
    d_min: float = 0.05
    steps: int = 10
    excit_fraction: float = 0.7
    population_factor: float = 1.0
    kernel_pitches: float = 1.5
    inhib_pitches: float = 3.0
    inhibition_gain: float = 1.0

    def __post_init__(self) -> None:
        if self.b <= 0.0:
            raise ParameterError(f"attraction b must be > 0, got {self.b}")
        if self.gamma <= 0.0:
            raise ParameterError(f"gamma must be > 0, got {self.gamma}")
        if self.eta < 0.0:
            raise ParameterError(f"eta must be >= 0, got {self.eta}")
        if self.d_min < 0.0:
            raise ParameterError(f"d_min must be >= 0, got {self.d_min}")
        if self.steps < 0:
            raise ParameterError(f"steps must be >= 0, got {self.steps}")
        if not 0.0 <= self.excit_fraction <= 1.0:
            raise ParameterError(f"excit_fraction must lie in [0,1], got {self.excit_fraction}")
        if self.population_factor <= 0.0:
            raise ParameterError(f"population_factor must be > 0, got {self.population_factor}")
        if self.kernel_pitches <= 0.0:
            raise ParameterError(f"kernel_pitches must be > 0, got {self.kernel_pitches}")
        if self.inhib_pitches <= 0.0:
            raise ParameterError(f"inhib_pitches must be > 0, got {self.inhib_pitches}")
        if self.inhibition_gain < 0.0:
            raise ParameterError(f"inhibition_gain must be >= 0, got {self.inhibition_gain}")


@dataclass(frozen=True)
class GridLayout:
    """Maps the N cells onto the unit square (cell centers, row-major)."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ParameterError(f"layout sides must be >= 1, got {self.rows}x{self.cols}")

    @property
    def n(self) -> int:
        return self.rows * self.cols

    @property
    def pitch(self) -> float:
        """Spacing of neighboring cell centers along the finer axis."""
        return 1.0 / max(self.rows, self.cols)

    def cell_positions(self) -> np.ndarray:
        """(n, 2) array of (x, y) centers; x runs along columns."""
        r, c = np.divmod(np.arange(self.n), self.cols)
        x = (c + 0.5) / self.cols
        y = (r + 0.5) / self.rows
        return np.column_stack([x, y])

    def cell_distance_sq(self) -> np.ndarray:
        """(n, n) squared cell-to-cell distances in cell units."""
        total = np.zeros((self.n, self.n))
        for index in np.divmod(np.arange(self.n), self.cols):
            coord = index.astype(float)
            d = np.abs(coord[:, None] - coord[None, :])
            total += d * d
        return total

    def nearest_cell(self, points: np.ndarray) -> np.ndarray:
        """Row-major index of the cell whose center is closest to each point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        # np.minimum/np.maximum: np.clip's integers with less call overhead
        col = np.minimum(np.maximum(np.floor(pts[:, 0] * self.cols).astype(int), 0), self.cols - 1)
        row = np.minimum(np.maximum(np.floor(pts[:, 1] * self.rows).astype(int), 0), self.rows - 1)
        return row * self.cols + col


@dataclass
class FireflyPopulation:
    """Mutable swarm state owned by a single simulation.

    Stored as parallel arrays for speed.  ``settle_converged`` reports
    whether the last spacing pass met d_min everywhere (best effort near
    walls).
    """

    positions: np.ndarray  # (F, 2) in [0, 1]^2
    excitatory: np.ndarray  # (F,) bool
    brightness: np.ndarray  # (F,) float
    params: SwarmParams
    rng: np.random.Generator
    settle_converged: bool = True

    @classmethod
    def spawn(cls, count: int, params: SwarmParams, rng: np.random.Generator) -> "FireflyPopulation":
        """Uniform positions; the first round(count * excit_fraction) agents
        are excitatory, the rest inhibitory."""
        if count < 1:
            raise ParameterError(f"population count must be >= 1, got {count}")
        n_excit = int(round(count * params.excit_fraction))
        excitatory = np.zeros(count, dtype=bool)
        excitatory[:n_excit] = True
        positions = rng.random((count, 2))
        return cls(
            positions=positions,
            excitatory=excitatory,
            brightness=np.zeros(count),
            params=params,
            rng=rng,
        )

    def __len__(self) -> int:
        return int(self.positions.shape[0])

    @property
    def n_excitatory(self) -> int:
        return int(self.excitatory.sum())


def swarm_step(
    pop: FireflyPopulation, activity: Pattern, layout: GridLayout
) -> FireflyPopulation:
    """One full swarm update against a fixed activity pattern.

    Brightness is refreshed from the nearest cell's activity, then every
    agent moves toward each strictly brighter agent in one in-place pass
    (ascending index, updated positions visible within the pass), and
    finally the spacing constraint is settled.  Mutates and returns pop.

    A move of agent i toward a brighter agent j is Yang's firefly rule:
    x_i += b * exp(-gamma * r^2) * (x_j - x_i) + eta * (u - 1/2) per
    coordinate (u drawn per coordinate, x first), clipped to the unit
    square.  With eta = 0 the move is a contraction toward x_j.
    """
    if activity.n != layout.n:
        raise ShapeMismatchError(
            f"activity length {activity.n} does not match layout size {layout.n}"
        )
    count = len(pop)
    nearest = layout.nearest_cell(pop.positions)
    pop.brightness = activity.values[nearest]  # a float copy: Pattern values are float

    bright = pop.brightness.tolist()
    # brighter[b]: the agents strictly brighter than level b, ascending
    members: dict[float, list[int]] = {}
    for j, bj in enumerate(bright):
        members.setdefault(bj, []).append(j)
    brighter, above = {}, []
    for level in sorted(members, reverse=True):
        brighter[level] = above
        above = sorted(above + members[level])
    # Move count is fixed by the brightness ranking, so the jitter for the
    # whole pass can be drawn as one block without changing the stream.
    n_moves = sum(len(brighter[bi]) for bi in bright)
    jitter = (pop.params.eta * (pop.rng.random(2 * n_moves) - 0.5)).tolist() if n_moves else []

    b_att = pop.params.b
    neg_gamma = -pop.params.gamma
    exp = math.exp
    x, y = pop.positions.T.tolist()
    k = 0
    for i in range(count):
        xi, yi = x[i], y[i]
        for j in brighter[bright[i]]:
            dx = x[j] - xi
            dy = y[j] - yi
            attract = b_att * exp(neg_gamma * (dx * dx + dy * dy))
            xi += attract * dx + jitter[k]
            yi += attract * dy + jitter[k + 1]
            k += 2
            if xi < 0.0:
                xi = 0.0
            elif xi > 1.0:
                xi = 1.0
            if yi < 0.0:
                yi = 0.0
            elif yi > 1.0:
                yi = 1.0
        x[i], y[i] = xi, yi
    pop.positions = np.array((x, y)).T.copy()
    return enforce_min_distance(pop)


def enforce_min_distance(pop: FireflyPopulation) -> FireflyPopulation:
    """Push agent pairs closer than d_min symmetrically apart.

    Each sweep finds every violating pair and splits it along the
    separation vector, half the deficit per side aiming slightly past
    d_min (a seeded random direction for coincident agents, one draw per
    coincident pair in pair order); the accumulated displacements are
    applied together (a Jacobi sweep), clipped to the unit square.
    Stops when a sweep finds no violation (to within SETTLE_EPS, below
    which pushes fall under floating-point resolution), when clipping
    cancels every push (wall deadlock), or after MAX_SETTLE_SWEEPS; the
    outcome lands in settle_converged and the best-effort positions are
    kept either way.

    Positions are held flat, x then y.  A sweep measures only the pairs
    on a neighbour list, in row-major i<j order: the pairs within
    SETTLE_SKIN * d_min of violating when the list was last built, by a
    sweep over all pairs.  The list is rebuilt whenever an agent has
    drifted half that skin, so a pair off the list cannot violate and
    every sweep finds what an all-pairs sweep would.  The drift is
    measured exactly only once a bound on it reaches that threshold: the
    last measured drift plus sqrt(2) times the sum of each sweep's largest
    coordinate move since, which the wall-deadlock test computes anyway.
    Each agent's displacement sums its pushes as the lower-index end in
    pair order, then its pushes as the higher-index end in pair order;
    that order fixes the result bits that the byte-determinism checks
    compare.
    """
    d_min = pop.params.d_min
    count = len(pop)
    if d_min <= 0.0 or count < 2:
        pop.settle_converged = True
        return pop

    flat = pop.positions.T.ravel()
    all_bins = _pair_bins(count)
    too_close, reach = d_min - SETTLE_EPS, SETTLE_OVERSHOOT * d_min
    skin = SETTLE_SKIN * d_min
    # A pair left off the list was at least too_close + skin apart when the
    # list was built and has closed by at most the drift of its two ends
    # since, so rebuilding once an agent drifts skin / 2 (less a rounding
    # margin) keeps every unlisted pair clear of too_close.  The drift
    # bound is inflated by 1e-12 to cover its own rounding.
    rebuild = max(0.5 * skin - 1e-9, 0.0)
    rebuild_sq = rebuild**2
    anchor = None  # positions when the list was built
    drift = 0.0  # bound on any agent's distance from anchor
    converged = False
    for _ in range(MAX_SETTLE_SWEEPS):
        stale = anchor is None
        if not stale and drift * (1.0 + 1e-12) >= rebuild:
            squares = np.square(flat - anchor)
            drift_sq = np.maximum.reduce(squares[:count] + squares[count:])
            stale, drift = drift_sq >= rebuild_sq, math.sqrt(drift_sq)
        # the pair ends x_i, y_i, x_j, y_j; pair (i, j) points i -> j
        ends = flat.take(all_bins if stale else bins)
        sep = ends[2:] - ends[:2]
        sq = sep * sep
        dist = np.sqrt(sq[0] + sq[1])
        if stale:
            anchor, drift = flat, 0.0
            near = (dist < too_close + skin).nonzero()[0]
            bins, sep, dist = all_bins.take(near, axis=1), sep.take(near, axis=1), dist[near]
        bad = (dist < too_close).nonzero()[0]
        if not bad.size:
            converged = True
            break
        gaps = dist[bad]
        unit = sep.take(bad, axis=1)
        if np.minimum.reduce(gaps) < 1e-15:
            touching = gaps < 1e-15
            angles = 2.0 * math.pi * pop.rng.random(int(touching.sum()))
            unit[:, touching] = np.cos(angles), np.sin(angles)
            apart = ~touching
            unit[:, apart] /= gaps[apart]
        else:
            unit /= gaps
        half = reach - gaps
        half *= 0.5
        unit *= half  # the push
        # bincount sums its weights in input order, so each agent's shift
        # is its pushes as the lower-index end in pair order, then its
        # pushes as the higher-index end; x bins are 0..F-1, y bins F..2F-1.
        moved = np.bincount(
            bins.take(bad, axis=1).ravel(),
            weights=(_PUSH_SIGNS * unit).ravel(),
            minlength=2 * count,
        )
        moved += flat
        np.maximum(moved, 0.0, out=moved)
        np.minimum(moved, 1.0, out=moved)
        step = np.maximum.reduce(np.absolute(moved - flat))
        flat = moved
        if step < 1e-12:
            # clipping cancelled every push (wall deadlock); no progress
            # possible, keep the best-effort layout
            break
        drift += _SQRT2 * step
    pop.positions = np.ascontiguousarray(flat.reshape(2, count).T)
    pop.settle_converged = converged
    return pop


def synthesize_weights(pop: FireflyPopulation, layout: GridLayout, v: float) -> WeightMatrix:
    """Read a signed coupling matrix off the swarm's spatial arrangement.

    Every agent is assigned to its nearest cell j and contributes
    sign * b * exp(-dist(cell_i, agent)^2 / (2 sigma^2)) to each w_ij.
    Excitatory agents deposit with a narrow kernel (sigma =
    kernel_pitches grid pitches); inhibitory agents deposit with a wide
    one (inhib_pitches) scaled by inhibition_gain, giving the
    center-surround shape: cells under the swarm see mostly excitation,
    cells away from it mostly inhibition.  All four constants come from
    the population's own ``SwarmParams``.

    The diagonal is zeroed, each row is scaled so its positive part sums
    to at most 1, and entries are clipped into [-v/2, v].  Rows whose
    positive mass already sits below 1 are left alone, with two effects:
    cells far from every agent keep near-zero excitation instead of
    having kernel dust blown up to full strength, and they keep their
    full inhibitory surround while rows under the swarm have theirs
    divided down with the excitatory mass.

    Requires at least one excitatory agent; without any positive mass
    the row scaling is undefined.
    """
    if pop.n_excitatory == 0:
        raise ParameterError("population lacking excitatory polarity; cannot synthesize weights")
    if v <= 0.0:
        raise ParameterError(f"saturation ceiling v must be > 0, got {v}")

    cells = layout.cell_positions()
    assigned = layout.nearest_cell(pop.positions)
    # kernel[i, f] = strength agent f contributes at cell i
    d2 = ((cells[:, None, :] - pop.positions[None, :, :]) ** 2).sum(axis=2)
    params = pop.params
    sig_e = params.kernel_pitches * layout.pitch
    sig_i = params.inhib_pitches * layout.pitch
    kernel = np.where(
        pop.excitatory[None, :],
        params.b * np.exp(-d2 / (2.0 * sig_e * sig_e)),
        -params.inhibition_gain * params.b * np.exp(-d2 / (2.0 * sig_i * sig_i)),
    )

    w = np.zeros((layout.n, layout.n))
    np.add.at(w.T, assigned, kernel.T)
    np.fill_diagonal(w, 0.0)

    pos_sums = np.clip(w, 0.0, None).sum(axis=1, keepdims=True)
    w = w / np.maximum(pos_sums, 1.0)
    w = np.clip(w, -0.5 * v, v)
    return WeightMatrix(w)


# ---------------------------------------------------------------------------
# population snapshot IO
# ---------------------------------------------------------------------------

_POPULATION_COLUMNS = ("x", "y", "polarity", "brightness")


def save_population_csv(pop: FireflyPopulation, path: str | Path) -> None:
    """One row per agent: x, y, polarity (E/I), brightness."""
    rows = (
        (FLOAT_FMT % x, FLOAT_FMT % y, "E" if exc else "I", FLOAT_FMT % br)
        for (x, y), exc, br in zip(pop.positions, pop.excitatory, pop.brightness)
    )
    write_table(path, _POPULATION_COLUMNS, rows)


def load_population_csv(path: str | Path, params: SwarmParams, rng: np.random.Generator) -> FireflyPopulation:
    """Rebuild a population snapshot; generator state is fresh, not restored."""
    lines = [ln.strip() for ln in read_text(path).splitlines() if ln.strip()]
    if not lines or tuple(lines[0].split(",")) != _POPULATION_COLUMNS:
        raise FormatError(f"malformed population header in {path}")
    positions = []
    excitatory = []
    bright = []
    for ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != 4:
            raise FormatError(f"malformed population row in {path}: {ln!r}")
        if fields[2] not in ("E", "I"):
            raise FormatError(f"unknown polarity {fields[2]!r} in {path}")
        try:
            x, y, br = float(fields[0]), float(fields[1]), float(fields[3])
        except ValueError as exc:
            raise FormatError(f"non-numeric value in {path}: {ln!r}") from exc
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 and math.isfinite(br)):
            raise FormatError(f"agent off the unit square or not finite in {path}: {ln!r}")
        positions.append((x, y))
        bright.append(br)
        excitatory.append(fields[2] == "E")
    if not positions:
        raise FormatError(f"population file has no agents: {path}")
    return FireflyPopulation(
        positions=np.asarray(positions, dtype=float),
        excitatory=np.asarray(excitatory, dtype=bool),
        brightness=np.asarray(bright, dtype=float),
        params=params,
        rng=rng,
    )
