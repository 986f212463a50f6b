"""Critical-point analysis of the target function and solvability criteria.

The solvability machinery counts critical points x with f(x) > 0 and
surface Laplacian < 0, grouped by co-index: m_i is the number of such
points with Morse index n - i.  The associated linear system

    m_0 = 1 + k_0,   m_i = k_{i-1} + k_i  (1 <= i <= n),   k_n = 0

has a unique candidate solution by forward recursion; the existence
obstruction is whether that candidate is a nonnegative integer vector.
A separate signed count compares sum (-1)^{index} over the counted
points with (-1)^n.

Symmetric variants replace Morse data with the fixed-point set of a
mirror reflection (a great circle) or a discrete rotation about an
axis (the two poles).
"""

import re
from dataclasses import dataclass, field

import numpy as np

from .curvature import N, weighted_mean_sign
from .errors import NotMorseError, SpecParseError
from .spectral import make_grid

_GRAD_TOL = 1e-8
_DEGENERATE_TOL = 1e-8
_MERGE_TOL = 1e-6


@dataclass
class CriticalPoint:
    location: np.ndarray
    value: float
    grad_norm: float
    laplacian: float
    index: int
    hessian_eigs: tuple

    @property
    def counted(self):
        """Whether this point enters the m-counts (f > 0, Laplacian < 0)."""
        return self.value > 0.0 and self.laplacian < 0.0


@dataclass
class KVerdict:
    solvable: bool
    k: tuple
    reason: str = ""


@dataclass
class MorseReport:
    f_source: str
    morse_ok: bool
    failure: str = ""
    points: list = field(default_factory=list)
    m: tuple = ()
    k_verdict: KVerdict = None
    index_sum: int = 0
    f_mean: float = np.nan
    f_absmax: float = np.nan
    ratio: float = np.nan
    conditions: dict = None
    criteria_hold: bool = False
    warnings: list = field(default_factory=list)


def _probe_points(L):
    """Rectangular probe lattice (denser than the spectral grid) plus poles."""
    n_th, n_ph = 4 * L, 8 * L
    th = (np.arange(n_th) + 0.5) * np.pi / n_th
    ph = 2.0 * np.pi * np.arange(n_ph) / n_ph
    T, P = np.meshgrid(th, ph, indexing="ij")
    pts = np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1)
    return pts


def _newton_refine(f, seeds, iters=80):
    """Newton iteration for grad_S f = 0 from every seed of a (k, 3) stack at once.

    Returns (x, ok).  A seed freezes once |g| <= 1e-13 (ok), or when its
    tangent Hessian is singular (not ok); steps are clipped to length
    0.7, and a seed still moving after iters is ok if |grad f| <= _GRAD_TOL.
    """
    x = seeds / np.linalg.norm(seeds, axis=-1, keepdims=True)
    ok = np.ones(len(x), dtype=bool)
    live = np.arange(len(x))
    for _ in range(iters):
        H, basis = f.tangent_hessian(x[live])
        g = (basis @ f.grad_sphere(x[live])[:, :, None])[:, :, 0]
        det = H[:, 0, 0] * H[:, 1, 1] - H[:, 0, 1] * H[:, 1, 0]
        done = np.linalg.norm(g, axis=-1) <= 1e-13
        ok[live[~done & (det == 0.0)]] = False
        move = ~done & (det != 0.0)
        live, H, g, basis, det = live[move], H[move], g[move], basis[move], det[move]
        if not live.size:
            break
        xi = np.stack([H[:, 0, 1] * g[:, 1] - H[:, 1, 1] * g[:, 0],
                       H[:, 1, 0] * g[:, 0] - H[:, 0, 0] * g[:, 1]], axis=-1) / det[:, None]
        xi *= 0.7 / np.maximum(np.linalg.norm(xi, axis=-1), 0.7)[:, None]
        step = x[live] + (xi[:, None, :] @ basis)[:, 0]
        x[live] = step / np.linalg.norm(step, axis=-1, keepdims=True)
    ok[live] = np.linalg.norm(f.grad_sphere(x[live]), axis=-1) <= _GRAD_TOL
    return x, ok


def find_critical_points(f, grid=None, collect_warnings=None):
    """Locate all critical points of f by probe-lattice seeding + Newton.

    Seeds are local minima of |grad f|^2 on a 4L x 8L lattice (poles
    added explicitly), all refined by one batched Newton iteration; in
    seed order, a refined point closer than 1e-6 geodesic to one already
    located merges into it, the one with the smaller gradient kept.
    Hessians, values and Laplacians of the located points are evaluated
    in one batch.  Raises NotMorseError for constant f or a degenerate
    tangent Hessian at a located point (the first, in seed order).
    """
    if grid is None:
        grid = make_grid(31)
    pts = _probe_points(grid.L)
    g2 = np.sum(f.grad_sphere(pts) ** 2, axis=-1)
    fvals = f(pts)
    if g2.max() < 1e-18 and fvals.max() - fvals.min() < 1e-14:
        raise NotMorseError("function is constant: not Morse")

    neighborhood_min = np.ones_like(g2, dtype=bool)
    for dth, dph in [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]:
        shifted = np.roll(g2, dph, axis=1)
        if dth == -1:
            cmp = np.full_like(g2, np.inf)
            cmp[1:, :] = shifted[:-1, :]
        elif dth == 1:
            cmp = np.full_like(g2, np.inf)
            cmp[:-1, :] = shifted[1:, :]
        else:
            cmp = shifted
        neighborhood_min &= g2 <= cmp
    seeds = np.concatenate([pts[neighborhood_min], [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])

    xs, ok = _newton_refine(f, seeds)
    gns = np.linalg.norm(f.grad_sphere(xs), axis=-1)
    if collect_warnings is not None:
        collect_warnings.extend(f"Newton did not converge from seed {np.round(seed, 3)}" for seed in seeds[~ok])
    found = ok & (gns <= _GRAD_TOL)
    loc, loc_gn = np.empty((0, 3)), []
    for x, gn in zip(xs[found], gns[found]):
        near = np.flatnonzero(np.arccos(np.clip(loc @ x, -1.0, 1.0)) < _MERGE_TOL)
        if not near.size:
            loc = np.vstack([loc, x])
            loc_gn.append(gn)
        elif gn < loc_gn[near[0]]:
            loc[near[0]], loc_gn[near[0]] = x, gn

    H, _ = f.tangent_hessian(loc)
    eigs = np.linalg.eigvalsh(H)
    degenerate = np.flatnonzero(np.any(np.abs(eigs) < _DEGENERATE_TOL, axis=-1))
    if degenerate.size:
        i = degenerate[0]
        raise NotMorseError(
            f"degenerate critical point at {np.round(loc[i], 6)} (tangent eigenvalues {eigs[i]}): not Morse"
        )
    points = [
        CriticalPoint(location=x, value=float(v), grad_norm=float(gn), laplacian=float(lap),
                      index=int(np.sum(e < 0)), hessian_eigs=tuple(e))
        for x, v, gn, lap, e in zip(loc, f(loc), loc_gn, f.lap_sphere(loc), eigs)
    ]
    points.sort(key=lambda cp: tuple(np.round(cp.location, 9)))
    return points


def counts_mi(f, grid=None, points=None):
    """Vector m_0..m_n: counted critical points grouped by co-index."""
    if points is None:
        points = find_critical_points(f, grid)
    m = np.zeros(N + 1, dtype=int)
    for cp in points:
        if cp.counted:
            m[N - cp.index] += 1
    return tuple(int(v) for v in m)


def solve_k_system(m, n):
    """Unique-candidate solve of the counting recursion.

    k_0 = m_0 - 1, k_i = m_i - k_{i-1}; solvable iff every k_i >= 0 and
    k_n = 0.  The obstruction criterion holds exactly when this returns
    Unsolvable.
    """
    m = list(m)
    if len(m) != n + 1:
        raise ValueError(f"m must have length n+1={n + 1}, got {len(m)}")
    k = [m[0] - 1]
    for i in range(1, n + 1):
        k.append(m[i] - k[i - 1])
    if any(v < 0 for v in k):
        i = next(i for i, v in enumerate(k) if v < 0)
        return KVerdict(False, tuple(k), f"k_{i} = {k[i]} < 0")
    if k[n] != 0:
        return KVerdict(False, tuple(k), f"k_{n} = {k[n]} != 0")
    return KVerdict(True, tuple(k))


def index_count(f, grid=None, points=None):
    """Signed count over counted points; holds when it differs from (-1)^n."""
    if points is None:
        points = find_critical_points(f, grid)
    total = sum((-1) ** cp.index for cp in points if cp.counted)
    return {"sum": int(total), "holds": total != (-1) ** N}


def _mean_and_ratio(f, grid):
    """(mean f, max|f|, whether mean f is positive beyond roundoff)."""
    f_mean, sign = weighted_mean_sign(grid, f(grid.nodes()))
    fmin, fmax = f.extrema()
    f_absmax = max(abs(fmin), abs(fmax))
    return f_mean, f_absmax, sign > 0


def check_conditions(f, grid=None):
    """Full solvability report for the Morse-theoretic criteria.

    Conditions: positive_mean (mean f > 0, roundoff of a vanishing mean
    counting as 0, see curvature.weighted_mean_sign); simple_bubble_ratio
    (max|f| / mean f < 2^{1/n}); clean_critical_laplacian (surface
    Laplacian bounded away from 0 at every critical point, tolerance
    1e-8); k_system_unsolvable.  criteria_hold is their conjunction.
    The signed-count variant is reported alongside as index_count.
    """
    if grid is None:
        grid = make_grid(31)
    f_mean, f_absmax, positive_mean = _mean_and_ratio(f, grid)
    ratio = f_absmax / f_mean if positive_mean else np.inf
    warnings_list = []
    try:
        points = find_critical_points(f, grid, collect_warnings=warnings_list)
    except NotMorseError as exc:
        return MorseReport(
            f_source=getattr(f, "source", ""),
            morse_ok=False,
            failure=str(exc),
            f_mean=f_mean,
            f_absmax=f_absmax,
            ratio=ratio,
            warnings=warnings_list,
        )
    m = counts_mi(f, grid, points=points)
    kv = solve_k_system(m, N)
    isum = index_count(f, points=points)
    conditions = {
        "positive_mean": bool(positive_mean),
        "simple_bubble_ratio": bool(positive_mean and ratio < 2.0 ** (1.0 / N)),
        "clean_critical_laplacian": bool(all(abs(cp.laplacian) > _DEGENERATE_TOL for cp in points)),
        "k_system_unsolvable": bool(not kv.solvable),
        "index_count": bool(isum["holds"]),
    }
    criteria = (
        conditions["positive_mean"]
        and conditions["simple_bubble_ratio"]
        and conditions["clean_critical_laplacian"]
        and conditions["k_system_unsolvable"]
    )
    return MorseReport(
        f_source=getattr(f, "source", ""),
        morse_ok=True,
        points=points,
        m=m,
        k_verdict=kv,
        index_sum=isum["sum"],
        f_mean=f_mean,
        f_absmax=f_absmax,
        ratio=ratio,
        conditions=conditions,
        criteria_hold=bool(criteria),
        warnings=warnings_list,
    )


_SYM_RE = re.compile(
    r"^\s*(mirror|rotation)\s*[\( ]\s*([xyz])(?:-axis)?\s*(?:[,; ]\s*(?:k\s*=\s*)?(\d+))?\s*\)?\s*$"
)

_AXES = {"x": np.array([1.0, 0.0, 0.0]), "y": np.array([0.0, 1.0, 0.0]), "z": np.array([0.0, 0.0, 1.0])}


def parse_sym_spec(text):
    """Parse a symmetry spec: ``mirror(AXIS)`` or ``rotation(AXIS[, k])``.

    AXIS is one of x, y, z.  For rotations k is the cyclic order
    (integer > 1, default 2).  Returns (kind, axis_name, k).
    """
    m = _SYM_RE.match(text or "")
    if not m:
        raise SpecParseError(f"cannot parse symmetry spec {text!r}; "
                             "expected mirror(AXIS) or rotation(AXIS[, k])")
    kind, axis, k = m.group(1), m.group(2), m.group(3)
    if kind == "mirror":
        if k is not None:
            raise SpecParseError("mirror takes no order argument")
        return kind, axis, None
    k = int(k) if k is not None else 2
    if k < 2:
        raise SpecParseError(f"rotation order must be >= 2, got {k}")
    return kind, axis, k


def _generator_matrix(kind, axis, k):
    a = _AXES[axis]
    if kind == "mirror":
        return np.eye(3) - 2.0 * np.outer(a, a)
    c, s = np.cos(2 * np.pi / k), np.sin(2 * np.pi / k)
    K = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + s * K + (1.0 - c) * (K @ K)


def _circle_max(f, axis_vec, n_samples=8192):
    """Maximize f over the great circle orthogonal to axis_vec."""
    a = axis_vec
    v1 = np.cross(a, [0.0, 0.0, 1.0])
    if np.linalg.norm(v1) < 1e-12:
        v1 = np.cross(a, [1.0, 0.0, 0.0])
    v1 /= np.linalg.norm(v1)
    v2 = np.cross(a, v1)
    t = np.linspace(0, 2 * np.pi, n_samples, endpoint=False)
    circ = np.outer(np.cos(t), v1) + np.outer(np.sin(t), v2)
    vals = f(circ)
    order = np.argsort(vals)[::-1]
    best_val, maximizers = -np.inf, []
    dt = 2 * np.pi / n_samples
    for idx in order[:8]:
        # parabolic polish through the three neighboring samples
        tm, t0, tp = t[idx] - dt, t[idx], t[idx] + dt
        ym = float(f(np.cos(tm) * v1 + np.sin(tm) * v2))
        y0 = vals[idx]
        yp = float(f(np.cos(tp) * v1 + np.sin(tp) * v2))
        denom = ym - 2 * y0 + yp
        ts = t0 if abs(denom) < 1e-300 else t0 - 0.5 * dt * (yp - ym) / denom
        xs = np.cos(ts) * v1 + np.sin(ts) * v2
        ys = float(f(xs))
        if ys > best_val + 1e-12:
            best_val, maximizers = ys, [xs]
        elif abs(ys - best_val) <= 1e-9:
            maximizers.append(xs)
    return best_val, maximizers


def check_symmetry(f, sym_spec, grid=None):
    """Invariance test and the symmetric-case solvability flags.

    Reports the fixed-point set Sigma of the generator (a great circle
    for mirrors, the axis poles for rotations), max f over Sigma, and
    two criteria: invariant_criteria (max_Sigma f <= mean f, or Sigma
    empty) and fixed_set_max_criteria (some maximizer y of f on Sigma
    has surface Laplacian > 0).  Both also require invariance and the
    positive-mean and ratio conditions.
    """
    if grid is None:
        grid = make_grid(31)
    kind, axis, k = parse_sym_spec(sym_spec) if isinstance(sym_spec, str) else sym_spec
    theta = _generator_matrix(kind, axis, k)
    nodes = grid.nodes().reshape(-1, 3)
    deviation = float(np.max(np.abs(f(nodes @ theta.T) - f(nodes))))
    invariant = deviation <= 1e-8
    f_mean, f_absmax, positive_mean = _mean_and_ratio(f, grid)
    ratio = f_absmax / f_mean if positive_mean else np.inf
    ratio_ok = positive_mean and ratio < 2.0 ** (1.0 / N)

    a = _AXES[axis]
    if kind == "mirror":
        sigma_kind = "great-circle"
        max_sigma, maximizers = _circle_max(f, a)
    else:
        sigma_kind = "poles"
        vals = [float(f(a)), float(f(-a))]
        max_sigma = max(vals)
        maximizers = [s * a for s, v in zip([1.0, -1.0], vals) if abs(v - max_sigma) <= 1e-12]

    thm_fixed_set_mean = {
        "sigma_empty": False,
        "max_sigma_le_mean": bool(max_sigma <= f_mean),
        "applies": bool(invariant and positive_mean and ratio_ok and max_sigma <= f_mean),
    }
    witness = None
    for y in maximizers:
        if float(f.lap_sphere(y)) > 0.0:
            witness = y
            break
    thm_fixed_set_max = {
        "witness": None if witness is None else [float(v) for v in witness],
        "applies": bool(invariant and positive_mean and ratio_ok and witness is not None),
    }
    return {
        "kind": kind,
        "axis": axis,
        "order": k,
        "invariant": bool(invariant),
        "deviation": deviation,
        "sigma": sigma_kind,
        "max_sigma_f": float(max_sigma),
        "f_mean": float(f_mean),
        "f_absmax": float(f_absmax),
        "ratio_ok": bool(ratio_ok),
        "positive_mean": bool(positive_mean),
        "invariant_criteria": thm_fixed_set_mean,
        "fixed_set_max_criteria": thm_fixed_set_max,
    }
