"""Hand-rolled reference implementations the tests check the library against.

Everything here is written the slow, obvious way on purpose: scalar
loops over plain Python lists, no numpy linear algebra.  A disagreement
between the library and these routines points at the fast path rather
than at a mistake shared by both sides.  The ``*_reference`` routines
are the exception: each keeps an earlier, plainer version of a library
path with the same arithmetic, so the fast path must match it bit for
bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from types import SimpleNamespace

import numpy as np

from fireflynet.dynamics import truncated_resolvent
from fireflynet.errors import ParameterError, PatternAnnihilatedError, ShapeMismatchError
from fireflynet.firefly import INHIB_PITCHES, INHIBITION_GAIN, KERNEL_PITCHES
from fireflynet.patterns import NORM_EPS, Pattern, relative_threshold
from fireflynet.plasticity import STEP_FRACTION
from fireflynet.trainer import ACTIVE_FRACTION


def gauss_value(x: float, mu: float, sigma: float) -> float:
    """Scalar decaying bell curve, evaluated one point at a time."""
    z = (x - mu) / sigma
    return math.exp(-0.5 * z * z)


def unit_scale(values: list[float]) -> list[float]:
    norm = math.sqrt(sum(v * v for v in values))
    return [v / norm for v in values]


def solve_dense(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    """Solve A X = B by Gaussian elimination with partial pivoting.

    a is n rows of n reals, b is n rows of m reals; returns X as n rows
    of m reals.  Raises ZeroDivisionError on a numerically singular A.
    """
    n = len(a)
    m = len(b[0])
    aug = [list(map(float, a[i])) + list(map(float, b[i])) for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[piv][col]) < 1e-300:
            raise ZeroDivisionError("singular matrix in reference solve")
        if piv != col:
            aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(col + 1, n):
            factor = aug[r][col] / aug[col][col]
            if factor != 0.0:
                for c in range(col, n + m):
                    aug[r][c] -= factor * aug[col][c]
    x = [[0.0] * m for _ in range(n)]
    for r in range(n - 1, -1, -1):
        for c in range(m):
            s = aug[r][n + c]
            for k in range(r + 1, n):
                s -= aug[r][k] * x[k][c]
            x[r][c] = s / aug[r][r]
    return x


def inverse_of_i_minus(w: list[list[float]]) -> list[list[float]]:
    """(I - W)^-1 via the elimination solver, column by column."""
    n = len(w)
    a = [[(1.0 if i == j else 0.0) - w[i][j] for j in range(n)] for i in range(n)]
    eye = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    return solve_dense(a, eye)


def matmul_loops(a: list[list[float]], b: list[list[float]]) -> list[list[float]]:
    n, k, m = len(a), len(b), len(b[0])
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += ai[t] * b[t][j]
            out[i][j] = s
    return out


def inf_norm_diff(a, b) -> float:
    """Max absolute row sum of (a - b); accepts lists or arrays."""
    worst = 0.0
    for ra, rb in zip(a, b):
        row = sum(abs(float(x) - float(y)) for x, y in zip(ra, rb))
        worst = max(worst, row)
    return worst


def growth_rate_loops(
    w: list[list[float]], t: list[list[float]], alpha: float, beta: float
) -> list[list[float]]:
    """Triple-loop weight growth rate.

    For every connection (i, j), i != j:
      alpha * (1 - n * w[i][j])
      + beta * w[i][j] * (t[i][j] - sum over j' != i of w[i][j'] * t[i][j'])
    Diagonal entries are 0 by convention (no self connections).
    """
    n = len(w)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        coop = 0.0
        for jp in range(n):
            if jp != i:
                coop += w[i][jp] * t[i][jp]
        for j in range(n):
            if j != i:
                out[i][j] = alpha * (1.0 - n * w[i][j]) + beta * w[i][j] * (t[i][j] - coop)
    return out


def pair_distances(points) -> list[float]:
    """Every unordered pair distance, brute force."""
    pts = [(float(p[0]), float(p[1])) for p in points]
    out = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dx = pts[i][0] - pts[j][0]
            dy = pts[i][1] - pts[j][1]
            out.append(math.sqrt(dx * dx + dy * dy))
    return out


def nearest_index(point, centers) -> int:
    """Argmin distance scan; first index wins ties."""
    best, best_d = 0, float("inf")
    for k, (cx, cy) in enumerate(centers):
        d = (point[0] - cx) ** 2 + (point[1] - cy) ** 2
        if d < best_d:
            best, best_d = k, d
    return best


def settle_loops(
    points,
    d_min: float,
    rng,
    max_sweeps: int,
    eps: float,
    overshoot: float,
) -> tuple[list[tuple[float, float]], bool]:
    """One spacing settle, pair by pair; returns (positions, converged).

    Each sweep tests the pairs i < j in row-major order and pushes every
    pair closer than d_min - eps apart, half of overshoot * d_min - gap
    per side along the separation; a coincident pair (gap below 1e-15)
    takes its direction from one rng.random() draw, in pair order.  The
    sweep is Jacobi: pushes are summed into a shift and applied together,
    clipped to the unit square.  Each agent's shift sums its pushes as
    the lower-index end in pair order, then its pushes as the
    higher-index end in pair order.  Stops on a sweep without violations
    (converged), on a sweep that clipping cancelled to under 1e-12
    (wall deadlock), or after max_sweeps.

    cos and sin are math's, the libm routines the library's kernel calls;
    numpy's own may round the last bit differently.
    """
    pos = [(float(p[0]), float(p[1])) for p in points]
    count = len(pos)
    for _ in range(max_sweeps):
        pushes = []
        for i in range(count):
            for j in range(i + 1, count):
                dx = pos[j][0] - pos[i][0]
                dy = pos[j][1] - pos[i][1]
                gap = math.sqrt(dx * dx + dy * dy)
                if gap < d_min - eps:
                    if gap < 1e-15:
                        angle = 2.0 * math.pi * float(rng.random())
                        ux, uy = math.cos(angle), math.sin(angle)
                    else:
                        ux, uy = dx / gap, dy / gap
                    half = 0.5 * (overshoot * d_min - gap)
                    pushes.append((i, j, half * ux, half * uy))
        if not pushes:
            return pos, True
        shift = [[0.0, 0.0] for _ in range(count)]
        for i, _, px, py in pushes:
            shift[i][0] += -px
            shift[i][1] += -py
        for _, j, px, py in pushes:
            shift[j][0] += px
            shift[j][1] += py
        moved = [
            (min(max(x + sx, 0.0), 1.0), min(max(y + sy, 0.0), 1.0))
            for (x, y), (sx, sy) in zip(pos, shift)
        ]
        step = max(
            max(abs(mx - x), abs(my - y)) for (mx, my), (x, y) in zip(moved, pos)
        )
        pos = moved
        if step < 1e-12:
            break
    return pos, False


def swarm_moves_reference(points, bright, b_att, gamma, eta, rng) -> list[tuple[float, float]]:
    """The move pass of one swarm step as it read with an all-pairs loop.

    Every agent, in ascending index, scans all agents and moves toward
    each strictly brighter one in turn, seeing the moves made earlier in
    the pass; each move adds b * exp(-gamma * r^2) of the separation plus
    eta * (u - 1/2) per coordinate and clips into the unit square.  The
    jitter for the whole pass is drawn as one block of 2 * moves values,
    x then y per move.
    """
    count = len(points)
    sorted_bright = sorted(bright)
    n_moves = sum(count - bisect_right(sorted_bright, bi) for bi in bright)
    noise = rng.random(2 * n_moves).tolist() if n_moves else []
    pos = [(float(p[0]), float(p[1])) for p in points]
    k = 0
    for i in range(count):
        xi, yi = pos[i]
        bi = bright[i]
        for j in range(count):
            if bright[j] > bi:
                xj, yj = pos[j]
                dx = xj - xi
                dy = yj - yi
                attract = b_att * math.exp(-gamma * (dx * dx + dy * dy))
                xi += attract * dx + eta * (noise[k] - 0.5)
                yi += attract * dy + eta * (noise[k + 1] - 0.5)
                k += 2
                if xi < 0.0:
                    xi = 0.0
                elif xi > 1.0:
                    xi = 1.0
                if yi < 0.0:
                    yi = 0.0
                elif yi > 1.0:
                    yi = 1.0
        pos[i] = (xi, yi)
    return pos


def evolve_reference(w, t, params) -> tuple[np.ndarray, list, int, bool, float]:
    """The plain clamped Euler loop, one fresh array per operation.

    Returns (weights, trace, steps, converged, final_max_rhs) with the
    meanings of ``EvolveReport``.  dt is STEP_FRACTION / (alpha * n +
    beta * max|T|), or 1 when that denominator is 0.  Every step evaluates
      f = alpha * (1 - n * w) + (beta * w) * (T - rowsum(w * T)),
    zeroes f's diagonal, clamps w + dt * f into [0, v], zeroes the
    diagonal again and stops once the largest weight change falls below
    tol * dt.  The grouping is the library's, so results agree bit for
    bit.
    """
    tt = np.asarray(t, dtype=float)
    current = np.array(w, dtype=float)
    n = current.shape[0]
    rate = params.alpha * n + params.beta * float(np.max(np.abs(tt)))
    dt = STEP_FRACTION / rate if rate > 0.0 else 1.0
    trace = []
    steps, converged, final_max_rhs = 0, False, 0.0
    for step in range(1, params.max_steps + 1):
        row_coop = np.sum(current * tt, axis=1, keepdims=True)
        f = params.alpha * (1.0 - n * current) + params.beta * current * (tt - row_coop)
        np.fill_diagonal(f, 0.0)
        proposed = np.clip(current + dt * f, 0.0, params.v)
        np.fill_diagonal(proposed, 0.0)
        delta = float(np.abs(proposed - current).max())
        current = proposed

        row_sums = current.sum(axis=1)
        max_rhs = float(np.abs(f).max())
        trace.append(
            (step, max_rhs, float(row_sums.min()), float(row_sums.mean()), float(row_sums.max()))
        )
        steps = step
        final_max_rhs = max_rhs
        if delta < params.tol * dt:
            converged = True
            break
    return current, trace, steps, converged, final_max_rhs


def row_fixed_points_reference(w, t, params) -> np.ndarray:
    """The numpy search ``row_fixed_points`` ran before its C kernel: every
    row at once, one masked array operation per step, rows summed by
    ``np.add.reduce`` along the contiguous axis.  Takes the start weights as
    an array and returns the solved weights, w unchanged where alpha = 0."""
    alpha, beta, v = params.alpha, params.beta, params.v
    if alpha == 0.0:
        return np.asarray(w, dtype=float)
    n = len(w)
    tz = t.copy()
    tz.reshape(-1)[:: n + 1] = 0.0
    bt, c, prod = beta * tz, np.empty((n, n)), np.empty((n, n))
    tol = 0.5 * params.tol / (beta * v) if beta * v > 0.0 else math.inf

    def g(lam: np.ndarray) -> np.ndarray:  # leaves w(lam) in c
        np.subtract((n * alpha + beta * lam)[:, None], bt, out=c)
        np.divide(alpha, np.maximum(c, alpha / v, out=c), out=c)
        c.reshape(-1)[:: n + 1] = 0.0
        return np.add.reduce(np.multiply(c, tz, out=prod), axis=1) - lam

    lo, hi = v * np.minimum(tz, 0.0).sum(axis=1), v * np.maximum(tz, 0.0).sum(axis=1)
    x = np.clip(np.add.reduce(w * tz, axis=1), lo, hi)
    a, ga = x, g(x)  # a: the last point on the start's side of the root
    gx, side, step, edge = ga, np.sign(ga), np.abs(ga) / 8.0, np.where(ga > 0.0, hi, lo)
    search = np.abs(ga) > tol
    while search.any():
        a, ga = np.where(search, x, a), np.where(search, gx, ga)
        x = np.where(search, np.clip(x + side * step, lo, hi), x)
        gx, step = g(x), 2.0 * step
        search &= (side * gx > tol) & (x != edge)
    live = side * gx < -tol
    for _ in range(100):
        if not live.any():
            break
        nx = np.where(live, x - gx * (x - a) / np.where(live, gx - ga, 1.0), x)
        ng = g(nx)
        flip = live & (ng * gx < 0.0)
        a, ga = np.where(flip, x, a), np.where(flip, gx, np.where(live, 0.5 * ga, ga))
        live &= (np.abs(ng) > tol) & (nx != x)
        x, gx = nx, ng
    return np.minimum(c, v, out=c)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes, values and signs of zero: the bits of finite floats."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def rate_reference(ww: np.ndarray, tt: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """The rate as ``plasticity`` computed it in numpy before its C kernel:
    the grouping alpha * (1 - n * w) + (beta * w) * (T - rowsum(w * T)),
    rows summed along the contiguous axis, which fixes the result bits, and
    the diagonal zeroed."""
    n = ww.shape[0]
    f = alpha * (1.0 - n * ww) + (beta * ww) * (tt - np.add.reduce(ww * tt, axis=1, keepdims=True))
    np.fill_diagonal(f, 0.0)
    return f


def evolve_weights_reference(w, t, params) -> tuple[np.ndarray, np.ndarray, bool]:
    """The Euler loop of ``evolve_weights`` as it read in numpy, with
    ``np.clip`` and the array methods' reductions.  Takes the start weights
    and the tensor as C-ordered arrays; returns the weights, the trace table
    and whether the last step met the tolerance."""
    n, dt = len(w), params.step(len(w), t)
    current, rows = w, []
    for _ in range(params.max_steps):
        f = rate_reference(current, t, params.alpha, params.beta)
        current, previous = np.clip(current + dt * f, 0.0, params.v), current
        sums = current.sum(axis=1)
        rows.append((np.abs(f).max(), sums.min(), sums.sum() / n, sums.max()))
        converged = bool(np.abs(current - previous).max() < params.tol * dt)
        if converged:
            break
    return current, np.array(rows), converged


def synthesize_weights_reference(pop, layout, v) -> np.ndarray:
    """``synthesize_weights`` as it read with the (n, F, 2) square-and-sum,
    uncached cell centres and ``np.clip``; returns the weights array."""
    if pop.n_excitatory == 0:
        raise ParameterError("population lacking excitatory polarity; cannot synthesize weights")
    if v <= 0.0:
        raise ParameterError(f"saturation ceiling v must be > 0, got {v}")

    cells = layout.cell_positions()
    assigned = layout.nearest_cell(pop.positions)
    # kernel[i, f] = strength agent f contributes at cell i
    d2 = ((cells[:, None, :] - pop.positions[None, :, :]) ** 2).sum(axis=2)
    b = pop.params.b
    sig_e = KERNEL_PITCHES * layout.pitch
    sig_i = INHIB_PITCHES * layout.pitch
    width = np.where(pop.excitatory, 2.0 * sig_e * sig_e, 2.0 * sig_i * sig_i)
    amplitude = np.where(pop.excitatory, b, -INHIBITION_GAIN * b)
    kernel = amplitude * np.exp(-d2 / width)

    w = np.zeros((layout.n, layout.n))
    np.add.at(w.T, assigned, kernel.T)
    np.fill_diagonal(w, 0.0)

    pos_sums = np.clip(w, 0.0, None).sum(axis=1, keepdims=True)
    w = w / np.maximum(pos_sums, 1.0)
    w = np.clip(w, -0.5 * v, v)
    return w


def row_normalize_capped_reference(w: np.ndarray, v: float) -> np.ndarray:
    """``trainer._row_normalize_capped`` as it read with one pass per row."""
    out = w.copy()
    for i in range(out.shape[0]):
        row = out[i]
        total = row.sum()
        if total <= 0.0:
            continue
        row /= total
        for _ in range(out.shape[1]):
            over = row > v
            if not over.any():
                break
            excess = float((row[over] - v).sum())
            row[over] = v
            free = ~over & (row > 0.0)
            if not free.any():
                break
            row[free] += excess * row[free] / float(row[free].sum())
        out[i] = row
    # redistribution rounding can leave entries a few ulp above the cap
    return np.clip(out, 0.0, v)


def cosine_reference(a, b):
    """Cosine as it read before the read path shared the output's norm:
    both norms taken here, 0.0 when either is at most NORM_EPS."""
    va = a.values if isinstance(a, Pattern) else np.asarray(a, dtype=float)
    vb = b.values if isinstance(b, Pattern) else np.asarray(b, dtype=float)
    if va.shape != vb.shape:
        raise ShapeMismatchError(f"cosine over mismatched shapes {va.shape} vs {vb.shape}")
    na = math.sqrt(float(np.dot(va, va)))
    nb = math.sqrt(float(np.dot(vb, vb)))
    if na <= NORM_EPS or nb <= NORM_EPS:
        return 0.0
    return float(np.dot(va, vb) / (na * nb))


def mask_reference(p, masked_indices):
    """Masking as it read before: the indices parsed into a sorted list,
    zeroed through it, and the result built by the checked constructor."""
    idx = sorted(set(int(i) for i in masked_indices))
    if not idx:
        return p
    if idx[0] < 0 or idx[-1] >= p.n:
        raise ParameterError(f"mask indices out of range for n={p.n}: {idx[0]}..{idx[-1]}")
    out = p.values.copy()
    out[idx] = 0.0
    norm = math.sqrt(float(np.dot(out, out)))
    if norm <= NORM_EPS:
        raise PatternAnnihilatedError("pattern annihilated: zero norm after operation")
    return Pattern(out / norm, grid=p.grid, label=p.label)


def similarity_reference(output, reference, templates):
    """Recall scoring worked out eagerly through numpy's own ``mean``,
    ``std`` and ``corrcoef``, as a plain namespace of the five attributes
    a ``RecallMetrics`` reads."""
    ref = reference.normalize()
    cos = cosine_reference(output, ref)
    mse = float(np.mean((output.values - ref.values) ** 2))
    a, b = output.values, ref.values
    if float(a.std()) <= 0.0 or float(b.std()) <= 0.0:
        pearson = 0.0
    else:
        pearson = float(np.corrcoef(a, b)[0, 1])
    best = None
    if templates:
        scored = [(cosine_reference(output, t), t.label) for t in templates if t.label is not None]
        if scored:
            best = max(scored, key=lambda s: s[0])[1]
    return SimpleNamespace(cosine=cos, mse=mse, pearson=pearson, best_match_label=best, low_confidence=False)


def recall_reference(model, cue, reference=None):
    """Recall as it read before the resolvent was memoised: D is rebuilt
    from ``model.weights`` on every call, the output is built by the
    checked constructor and scored against ``reference``, or the cue when
    it is None.  Same arithmetic as the library, so results agree bit for
    bit."""
    cfg = model.config
    if cue.n != cfg.n:
        raise ShapeMismatchError(f"cue length {cue.n} does not match network size {cfg.n}")
    if float(cue.values.max()) <= 0.0:
        raise ParameterError("zero cue: nothing to recall")
    d = truncated_resolvent(model.weights)
    raw = d @ cue.values
    out = np.clip(raw, 0.0, None)
    norm = math.sqrt(float(np.dot(out, out)))
    if norm <= 1e-12:
        out = np.zeros_like(out)
    else:
        out = out / norm
    output = Pattern(out, grid=cue.grid)
    return output, similarity_reference(output, cue if reference is None else reference, model.templates)


def complete_reference(model, partial, masked_indices):
    """Completion as it read before: recall the masked cue, throw its
    score away and score the output a second time against the original."""
    masked = sorted(set(int(i) for i in masked_indices))
    cue = mask_reference(partial, masked)
    output, _ = recall_reference(model, cue)
    metrics = similarity_reference(output, partial, model.templates)
    active = np.flatnonzero(partial.values > relative_threshold(partial, ACTIVE_FRACTION))
    metrics.low_confidence = bool(masked) and all(i in set(masked) for i in active.tolist())
    return output, metrics
