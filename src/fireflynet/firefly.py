"""Firefly swarm that lays out excitatory/inhibitory topology.

A population of point agents lives in the unit square over the cell
grid.  Each agent's brightness is the activity of its nearest cell;
agents drift toward brighter ones with a distance-decaying attraction
b * exp(-gamma * r^2) plus a small uniform jitter, then a settling pass
pushes any pair closer than d_min apart.  After some steps the swarm
clusters around active cells, and a signed coupling matrix is read off:
excitatory agents near a cell contribute positive weight to it, the
inhibitory minority contributes negative weight.

The move pass, the settle and weight synthesis after its exp run in the C
kernel ``swarm.c``, compiled on first use (``load_kernel``), with
``plasticity``'s row solve and Euler step.  It keeps the order of every
floating-point operation of the plain loops and the numpy code in
``tests/oracles.py``, and its build neither fuses nor reorders them, so it
returns their bits.  Its move pass draws the jitter from the population's
own generator, through numpy's C API.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .dynamics import WeightMatrix
from .errors import CompilerError, FormatError, ParameterError, ShapeMismatchError, require_integer
from .patterns import FLOAT_FMT, Pattern, read_text, write_table

# Settling passes before giving up on the spacing constraint, the slack
# under d_min that counts as satisfied (pushes below this fall under
# floating-point resolution near the middle of the unit square), and the
# overshoot past d_min each split aims for.  Pushing exactly to d_min
# approaches the constraint geometrically and never terminates; the 5%
# margin makes each violation resolve in one shove.
MAX_SETTLE_SWEEPS = 100
SETTLE_EPS = 1e-9
SETTLE_OVERSHOOT = 1.05

_KERNEL_SOURCE = Path(__file__).with_name("swarm.c")
_KERNEL_COMMAND = ("cc", "-O2", "-ffp-contract=off", "-fPIC", "-shared")


@cache
def load_kernel() -> ctypes.CDLL:
    """The compiled C kernel, built the first time it is asked for.

    The library is cached in ``__pycache__`` beside ``swarm.c``, named by
    a hash of the source and the compiler command, so later processes
    load it without compiling; where that directory cannot be written,
    the build goes to a private temporary directory, removed once the
    library is loaded.  Raises CompilerError when no C compiler is found
    or the build fails."""
    lib = _build_kernel(_KERNEL_SOURCE)
    long_, double, ptr = ctypes.c_long, ctypes.c_double, ctypes.c_void_p
    lib.swarm_move.argtypes = [ptr, long_, ptr, ptr, ptr, long_, long_, double, double, double]
    lib.swarm_settle.argtypes = [ptr, long_, ptr, double, double, long_]
    lib.row_fixed_points.argtypes = [ptr, ptr, ptr, long_, double, double, double, double]
    lib.euler_step.argtypes = [ptr, ptr, ptr, ptr, ptr, long_, double, double, double, double]
    lib.synthesize.argtypes = [ptr, long_, ptr, ptr, ptr, long_, long_, double]
    lib.swarm_move.restype = lib.swarm_settle.restype = lib.row_fixed_points.restype = long_
    lib.euler_step.restype, lib.synthesize.restype = double, None
    return lib


def _address(a: np.ndarray) -> int:
    """A C-ordered array's data address for the kernel: about 0.5 us by from_buffer where
    writable, else (``WeightMatrix.w``, say, or an empty array) ``a.ctypes.data``'s 1.3-2.5 us."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


def _build_kernel(source: Path) -> ctypes.CDLL:
    """The shared library built from ``source``, loaded: the cached one, or
    a new build in a private directory, renamed into the cache.  Where the
    cache cannot be written, the build is loaded from the private directory
    and the directory removed; the loaded mapping outlives the file."""
    import subprocess  # only a first use needs these
    import tempfile

    lib = _cached_library(source)
    if lib.is_file():
        return ctypes.CDLL(str(lib))
    try:
        lib.parent.mkdir(exist_ok=True)
        private = tempfile.TemporaryDirectory(dir=lib.parent)
    except OSError:  # never a shared, world-writable directory: mkdtemp's is private
        private, lib = tempfile.TemporaryDirectory(prefix="fireflynet-"), None
    with private:
        built = os.path.join(private.name, f"{source.stem}.so")
        try:
            run = subprocess.run([*_KERNEL_COMMAND, "-o", built, str(source), "-lm"], capture_output=True, text=True)
            failure = run.returncode and (run.stderr.strip().splitlines() or [f"exit {run.returncode}"])[-1]
        except OSError as exc:
            failure = exc
        if failure:
            raise CompilerError(f"building {source.name} needs a working C compiler (cc): {failure}")
        if lib is None:
            return ctypes.CDLL(built)
        os.chmod(built, 0o755)  # whatever the umask, other users of the cache can load it
        os.replace(built, lib)
    return ctypes.CDLL(str(lib))


def _cached_library(source: Path) -> Path:
    """The cache path of ``source``'s library: ``__pycache__`` beside it, by a hash of source and command."""
    import hashlib
    tag = hashlib.sha256(source.read_bytes() + " ".join(_KERNEL_COMMAND).encode()).hexdigest()[:16]
    return source.parent / "__pycache__" / f"{source.stem}-{tag}.so"


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
        require_integer("steps", self.steps)
        if not 0.0 < self.b < math.inf:
            raise ParameterError(f"attraction b must be finite and > 0, got {self.b}")
        if not 0.0 < self.gamma < math.inf:
            raise ParameterError(f"gamma must be finite and > 0, got {self.gamma}")
        if not 0.0 <= self.eta < math.inf:
            raise ParameterError(f"eta must be finite and >= 0, got {self.eta}")
        if not 0.0 <= self.d_min < math.inf:
            raise ParameterError(f"d_min must be finite and >= 0, got {self.d_min}")
        if self.steps < 0:
            raise ParameterError(f"steps must be >= 0, got {self.steps}")
        if not 0.0 <= self.excit_fraction <= 1.0:
            raise ParameterError(f"excit_fraction must lie in [0,1], got {self.excit_fraction}")
        if not 0.0 < self.population_factor < math.inf:
            raise ParameterError(f"population_factor must be finite and > 0, got {self.population_factor}")
        if not 0.0 < self.kernel_pitches < math.inf:
            raise ParameterError(f"kernel_pitches must be finite and > 0, got {self.kernel_pitches}")
        if not 0.0 < self.inhib_pitches < math.inf:
            raise ParameterError(f"inhib_pitches must be finite and > 0, got {self.inhib_pitches}")
        if not 0.0 <= self.inhibition_gain < math.inf:
            raise ParameterError(f"inhibition_gain must be finite and >= 0, got {self.inhibition_gain}")


@dataclass(frozen=True)
class GridLayout:
    """Maps the N cells onto the unit square (cell centers, row-major)."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        require_integer("rows", self.rows)
        require_integer("cols", self.cols)
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


def _agents(pop: FireflyPopulation) -> np.ndarray:
    """A C-ordered copy of the population's (x, y) rows, for the kernel."""
    positions = np.array(pop.positions, dtype=float, order="C")
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ShapeMismatchError(f"swarm positions must be (agents, 2), got shape {positions.shape}")
    return positions


def _run_kernel(entry, pop: FireflyPopulation, *args) -> tuple[np.ndarray, int]:
    """Run a kernel entry point on a C-ordered copy of the (x, y) rows and on
    the population's generator; return the copy and the status.  Status
    -1 - k, agent k off the unit square or not finite, raises."""
    positions = _agents(pop)
    status = entry(_address(positions), len(positions), pop.rng.bit_generator.ctypes.bit_generator, *args)
    if status < 0:
        raise _off_square(positions, -1 - status)
    return positions, status


def _off_square(positions: np.ndarray, k: int) -> ParameterError:
    return ParameterError(f"swarm agent {k} at {positions[k].tolist()} is off the unit square or not finite")


def swarm_step(pop: FireflyPopulation, activity: Pattern, layout: GridLayout) -> FireflyPopulation:
    """One full swarm update against a fixed activity pattern.

    Brightness is refreshed from the nearest cell's activity, then every
    agent moves toward each strictly brighter agent in one in-place pass
    (ascending index, updated positions visible within the pass), and
    finally the spacing constraint is settled.  Mutates and returns pop;
    raises ParameterError, with pop unchanged, on an agent off the unit
    square or not finite.

    A move of agent i toward a brighter agent j is Yang's firefly rule:
    x_i += b * exp(-gamma * r^2) * (x_j - x_i) + eta * (u - 1/2) per
    coordinate (u drawn per coordinate, x first), clipped to the unit
    square.  With eta = 0 the move is a contraction toward x_j.  The
    kernel finds cells as ``GridLayout.nearest_cell`` does and draws each
    u with the generator's ``next_double``, x then y per move: the stream
    ``rng.random(2 * moves)`` reads.  It groups each move as written
    above, clips with < and >, and takes exp from libm, as ``math.exp``.
    """
    if activity.n != layout.n:
        raise ShapeMismatchError(f"activity length {activity.n} does not match layout size {layout.n}")
    brightness = np.empty(len(pop))
    grid = (activity.values.ctypes.data, layout.rows, layout.cols)  # Pattern values: C-ordered float64
    rule = (pop.params.b, -pop.params.gamma, pop.params.eta)
    pop.positions, _ = _run_kernel(load_kernel().swarm_move, pop, _address(brightness), *grid, *rule)
    pop.brightness = brightness
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

    The kernel sweeps all i<j pairs in row-major order.  Each agent's
    displacement sums its pushes as the lower-index end in pair order,
    then as the higher-index end; that order fixes the bits the
    byte-determinism checks compare.  A pair whose squared distance shows
    that its sqrt cannot fall under the bound skips the sqrt.  A
    coincident pair's direction is libm's cos and sin of 2 pi times one
    ``next_double`` draw from the population's generator, the stream
    ``rng.random`` reads.  Raises ParameterError as ``swarm_step`` does.
    With d_min = 0, or one agent, no pair violates and the first sweep converges.
    """
    d_min = pop.params.d_min
    spacing = (d_min - SETTLE_EPS, SETTLE_OVERSHOOT * d_min, MAX_SETTLE_SWEEPS)
    positions, status = _run_kernel(load_kernel().swarm_settle, pop, *spacing)
    if status == 2:
        raise MemoryError(f"no memory for the spacing settle of {len(pop)} agents")
    pop.positions = positions
    pop.settle_converged = status == 0
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
    the row scaling is undefined.  Raises ParameterError, as ``swarm_step``
    does, on an agent off the unit square or not finite.  numpy computes the
    strengths, exp included (libm's exp rounds some inputs to other bits);
    the kernel adds, scales and clips them into the bits of the reference in
    ``tests/oracles.py``.
    """
    if pop.n_excitatory == 0:
        raise ParameterError("population lacking excitatory polarity; cannot synthesize weights")
    if v <= 0.0:
        raise ParameterError(f"saturation ceiling v must be > 0, got {v}")
    positions = _agents(pop)
    if not 0.0 <= positions.min() <= positions.max() <= 1.0:  # a NaN fails every comparison
        inside = ((positions >= 0.0) & (positions <= 1.0)).all(axis=1)
        raise _off_square(positions, int(np.argmin(inside)))

    cx, cy = _cell_centres(layout)
    # strength[i, f] = strength agent f contributes at cell i
    dx, dy = cx - positions[:, 0], cy - positions[:, 1]
    d2 = dx * dx + dy * dy
    params = pop.params
    sig_e = params.kernel_pitches * layout.pitch
    sig_i = params.inhib_pitches * layout.pitch
    width = np.where(pop.excitatory, 2.0 * sig_e * sig_e, 2.0 * sig_i * sig_i)
    amplitude = np.where(pop.excitatory, params.b, -params.inhibition_gain * params.b)
    strength = amplitude * np.exp(-d2 / width)

    w, scratch = np.zeros((layout.n, layout.n)), np.empty(layout.n)
    agents = (_address(positions), len(positions), _address(strength))
    load_kernel().synthesize(*agents, _address(w), _address(scratch), layout.rows, layout.cols, v)
    return WeightMatrix._wrap(w)


@cache
def _cell_centres(layout: GridLayout) -> tuple[np.ndarray, np.ndarray]:
    """The cell centres' x and y as read-only (n, 1) columns, one pair per grid."""
    centres = layout.cell_positions()
    centres.flags.writeable = False
    return centres[:, :1], centres[:, 1:]


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
