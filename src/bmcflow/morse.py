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
from dataclasses import dataclass

import numpy as np

from .curvature import N, target_report
from .errors import NotMorseError, SpecParseError
from .prescribed import probe_lattice, tangent_basis
from .spectral import sphere_points

_DEGENERATE_TOL = 1e-8
_MERGE_TOL = 1e-6
_MERGE_COS = np.cos(2.0 * _MERGE_TOL)  # every pair within _MERGE_TOL has its Gram entry above this
_MERGE_BLOCK = 64  # Gram rows formed at once, so the merge's memory is linear in the points
_CIRCLE_SAMPLES = 8192
_TIE_REL = 8.0 * np.finfo(float).eps  # lattice values of |grad f|^2 this close, relatively, tie as one plateau
_PROBE_BLOCK = 32  # lattice rows whose gradient is formed at once, so the sweep stays in cache


@dataclass
class CriticalPoint:
    location: np.ndarray
    value: float
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


def _probe_angles(L):
    """Colatitudes and longitudes of the probe lattice, 4L by 8L, denser than the spectral grid."""
    n_th, n_ph = 4 * L, 8 * L
    return (np.arange(n_th) + 0.5) * np.pi / n_th, 2.0 * np.pi * np.arange(n_ph) / n_ph


def _lattice_grad_sq(f, theta, phi):
    """|grad_S f|^2 on probe_lattice(theta, phi), _PROBE_BLOCK rows at a time: the whole lattice's, bit for bit."""
    g2 = np.empty((len(theta), len(phi)))
    for start in range(0, len(theta), _PROBE_BLOCK):
        rows = slice(start, start + _PROBE_BLOCK)
        g2[rows] = np.sum(f.grad_sphere(probe_lattice(theta[rows], phi)) ** 2, axis=-1)
    return g2


def _lattice_minima(g2):
    """(rows, cols), in raster order, of one point per local-minimum plateau of g2 (n_th, n_ph).

    A candidate is <= (1 + _TIE_REL) times the least value of its 3 x 3
    block, periodic in longitude and inf past the end rows (a NaN there
    fails).  It is dropped when it ties, each value within that factor of
    the other, with a neighbour earlier in raster order: the three above,
    the left one except in column 0, the right one in the last column
    (column 0).  So a run flat up to roundoff seeds at its first point, a
    flat row at column 0, and a run of inf (tied with the inf above) never.
    """
    (n_th, n_ph), near = g2.shape, 1.0 + _TIE_REL
    pad = np.full((n_th + 2, n_ph + 2), np.inf)
    pad[1:-1, 1:-1], pad[1:-1, 0], pad[1:-1, -1] = g2, g2[:, -1], g2[:, 0]
    across = np.minimum(np.minimum(pad[:, :-2], pad[:, 1:-1]), pad[:, 2:])
    low = np.minimum(np.minimum(across[:-2], across[1:-1]), across[2:])
    rows, cols = np.divmod(np.flatnonzero(g2 <= near * low), n_ph)
    earlier = np.stack([pad[rows, cols], pad[rows, cols + 1], pad[rows, cols + 2],
                        np.where(cols > 0, pad[rows + 1, cols], np.inf),
                        np.where(cols == n_ph - 1, pad[rows + 1, cols + 2], np.inf)])
    keep = ~np.any(earlier <= near * g2[rows, cols], axis=0)
    return rows[keep], cols[keep]


def _merge(xs, gns):
    """Indices of the refined unit vectors xs (k, 3) that are located, in the seed order of their leaders.

    A point's leader is the first point, in seed order, within _MERGE_TOL
    geodesic of it (itself at the latest); the points of one leader merge
    into the one of least |grad| gns, the first on ties.  The Gram
    entries, _MERGE_BLOCK rows at a time, only pick the candidate pairs;
    their geodesic is arccos of the dot product.
    """
    lead = np.empty(len(xs), dtype=np.intp)
    for start in range(0, len(xs), _MERGE_BLOCK):
        dots = xs[start:start + _MERGE_BLOCK] @ xs[:start + _MERGE_BLOCK].T
        near = dots > _MERGE_COS
        near[near] = np.arccos(np.clip(dots[near], -1.0, 1.0)) < _MERGE_TOL
        lead[start:start + _MERGE_BLOCK] = np.argmax(near, axis=1)
    order = np.lexsort((gns, lead))
    return order[np.diff(lead[order], prepend=-1) != 0]


def find_critical_points(f, grid, collect_warnings=None):
    """Locate all critical points of f by probe-lattice seeding + Newton.

    |grad_S f|^2 is swept over the 4L x 8L probe lattice 32 rows at a time
    (_lattice_grad_sq).  Seeds are one point per local-minimum plateau of
    it, the first in raster order of each run within 8 eps (relative) of
    <= its eight neighbours (_lattice_minima), plus the two poles, all
    refined by one f.newton_critical call and merged by _merge: each
    joins the first point in seed order within 1e-6 geodesic, located at
    the one of least gradient.  Tangent Hessians and values of the located
    points are evaluated in one batch; each Laplacian is its Hessian's
    trace.  Raises NotMorseError for constant f (f is read on the lattice
    only when |grad_S f|^2 vanishes there) or a degenerate tangent Hessian
    at a located point (the first, in that order).
    """
    theta, phi = _probe_angles(grid.L)
    g2 = _lattice_grad_sq(f, theta, phi)
    if g2.max() < 1e-18 and np.ptp(f(probe_lattice(theta, phi))) < 1e-14:
        raise NotMorseError("function is constant: not Morse")

    rows, cols = _lattice_minima(g2)  # sphere_points forms probe_lattice's products, so seeds are its points
    seeds = np.concatenate([sphere_points(np.sin(theta[rows]), np.cos(theta[rows]), phi[cols]).T,
                            [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    xs, ok = f.newton_critical(seeds)
    if collect_warnings is not None:
        collect_warnings.extend(f"Newton did not converge from seed {np.round(seed, 3)}" for seed in seeds[~ok])
    xs = xs[ok]
    loc = xs[_merge(xs, np.linalg.norm(f.grad_sphere(xs), axis=-1))]

    H, _ = f.tangent_hessian(loc)
    eigs = np.linalg.eigvalsh(H)
    degenerate = np.flatnonzero(np.any(np.abs(eigs) < _DEGENERATE_TOL, axis=-1))
    if degenerate.size:
        i = degenerate[0]
        raise NotMorseError(
            f"degenerate critical point at {np.round(loc[i], 6)} (tangent eigenvalues {eigs[i]}): not Morse"
        )
    points = [
        CriticalPoint(location=x, value=float(v), laplacian=float(lap), index=int(np.sum(e < 0)),
                      hessian_eigs=tuple(e))
        for x, v, lap, e in zip(loc, f(loc), np.trace(H, axis1=-2, axis2=-1), eigs)
    ]
    points.sort(key=lambda cp: tuple(np.round(cp.location, 9)))
    return points


def counts_mi(points):
    """Vector m_0..m_n: counted critical points grouped by co-index."""
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


def index_count(points):
    """Signed count over counted points; holds when it differs from (-1)^n."""
    total = sum((-1) ** cp.index for cp in points if cp.counted)
    return {"sum": int(total), "holds": total != (-1) ** N}


def check_conditions(f, grid):
    """Full solvability report for the Morse-theoretic criteria, as the `morse check` document.

    Conditions: positive_mean (mean f > 0, roundoff of a vanishing mean
    counting as 0) and simple_bubble_ratio (condition (ii): positive_mean and max|f| < 2^{1/n} mean f),
    both from curvature.target_report as flow_bounds takes them, so f_mean
    and f_absmax are those of verdict.json; clean_critical_laplacian (surface
    Laplacian bounded away from 0 at every critical point, tolerance
    1e-8); k_system_unsolvable.  criteria_hold is their conjunction.
    The signed-count variant is reported alongside as index_count.  A
    target that is not Morse gets its failure, m = [], conditions None
    and no k_system entry.
    """
    f_mean, sign, _, f_absmax, ratio_ok = target_report(f, grid, f(grid.nodes()))
    ratio = f_absmax / f_mean if sign > 0 else None
    doc = {"morse_ok": False, "failure": "", "f_mean": f_mean, "f_absmax": f_absmax, "ratio": ratio, "m": [],
           "index_sum": 0, "conditions": None, "criteria_hold": False, "warnings": [], "points": []}
    try:
        points = find_critical_points(f, grid, collect_warnings=doc["warnings"])
    except NotMorseError as exc:
        doc["failure"] = str(exc)
        return doc
    m = counts_mi(points)
    kv = solve_k_system(m, N)
    isum = index_count(points)
    conditions = {
        "positive_mean": sign > 0,
        "simple_bubble_ratio": ratio_ok,
        "clean_critical_laplacian": bool(all(abs(cp.laplacian) > _DEGENERATE_TOL for cp in points)),
        "k_system_unsolvable": bool(not kv.solvable),
        "index_count": bool(isum["holds"]),
    }
    criteria = (
        conditions["simple_bubble_ratio"]
        and conditions["clean_critical_laplacian"]
        and conditions["k_system_unsolvable"]
    )
    doc.update(
        morse_ok=True,
        m=list(m),
        index_sum=isum["sum"],
        conditions=conditions,
        criteria_hold=bool(criteria),
        points=[
            {"location": [float(v) for v in cp.location], "value": cp.value, "laplacian": cp.laplacian,
             "index": cp.index, "hessian_eigs": list(cp.hessian_eigs), "counted": cp.counted}
            for cp in points
        ],
        k_system={"solvable": kv.solvable, "k": list(kv.k), "reason": kv.reason},
    )
    return doc


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


def _circle_max(f, axis_vec):
    """(max, maximizers) of f over the great circle orthogonal to axis_vec, spanned by its tangent_basis.

    The 8 largest of _CIRCLE_SAMPLES samples move to the vertices of their parabolas through both neighbours (one
    call of f for the 16 neighbours, one for the 8 vertices).  Taken in that order, a vertex more than 1e-12 above
    the best so far replaces the maximizers, and one within 1e-9 of it joins them.
    """
    v1, v2 = tangent_basis(axis_vec)
    t, dt = np.linspace(0, 2 * np.pi, _CIRCLE_SAMPLES, endpoint=False, retstep=True)
    vals = f(np.outer(np.cos(t), v1) + np.outer(np.sin(t), v2))
    top = np.argsort(vals)[::-1][:8]
    t0 = t[top]
    near = np.concatenate((t0 - dt, t0 + dt))
    ym, yp = np.split(f(np.outer(np.cos(near), v1) + np.outer(np.sin(near), v2)), 2)
    denom = ym - 2 * vals[top] + yp
    flat = np.abs(denom) < 1e-300
    ts = np.where(flat, t0, t0 - 0.5 * dt * (yp - ym) / np.where(flat, 1.0, denom))
    xs = np.outer(np.cos(ts), v1) + np.outer(np.sin(ts), v2)
    best_val, maximizers = -np.inf, []
    for x, y in zip(xs, f(xs)):
        if y > best_val + 1e-12:
            best_val, maximizers = float(y), [x]
        elif abs(y - best_val) <= 1e-9:
            maximizers.append(x)
    return best_val, maximizers


def check_symmetry(f, sym_spec, grid):
    """Invariance test and the symmetric-case solvability flags.

    Reports the fixed-point set Sigma of the generator (a great circle
    for mirrors, the axis poles for rotations), max f over Sigma, and
    two criteria: invariant_criteria (max_Sigma f <= mean f, or Sigma
    empty) and fixed_set_max_criteria (some maximizer y of f on Sigma
    has surface Laplacian, the trace of its tangent Hessian, > 0).  Both
    also require invariance and condition (ii), as check_conditions
    reports it.
    """
    kind, axis, k = parse_sym_spec(sym_spec)
    theta = _generator_matrix(kind, axis, k)
    fv = f(grid.nodes())
    deviation = float(np.max(np.abs(f(grid.nodes() @ theta.T) - fv)))
    invariant = deviation <= 1e-8
    f_mean, sign, _, f_absmax, ratio_ok = target_report(f, grid, fv)

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
        "applies": bool(invariant and ratio_ok and max_sigma <= f_mean),
    }
    witness = None
    for y in maximizers:
        if float(np.trace(f.tangent_hessian(y)[0])) > 0.0:
            witness = y
            break
    thm_fixed_set_max = {
        "witness": None if witness is None else [float(v) for v in witness],
        "applies": bool(invariant and ratio_ok and witness is not None),
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
        "positive_mean": sign > 0,
        "invariant_criteria": thm_fixed_set_mean,
        "fixed_set_max_criteria": thm_fixed_set_max,
    }
