"""Closed-form target functions on the sphere and their mini-language.

A function is a sum of terms, each an optional coefficient times one
atom.  Grammar (whitespace and '*' between factors are ignored):

    f_spec  := term (("+" | "-") term)*
    term    := [number] [atom]
    atom    := monomial | bump | legendre
    monomial:= coord ["^" int] {coord ["^" int]}     e.g.  x^2 y z^3
    bump    := "bump(" k ";" px "," py "," pz ")"    exp(-k(1 - <x, p/|p|>))
    legendre:= "legendre(" l ")"                     P_l(z)

A term with no atom is a constant.  Examples: "2 - z^2",
"4 + 0.3x^2 + 0.6y^2 + 1.05z^2", "1.34 - 1.36 bump(8; 0,0,-1)",
"2 + 0.5 legendre(1)".  A coefficient in e-notation may carry a signed
exponent ("1e-3 z").  Every number must be finite, and so must each
term's bound on its value and derivatives, and the sum of the bounds:
|coef| max(1, d^2) for a monomial of degree d, |coef| e^{2 max(0, -k)}
max(1, k^2) for a bump and |coef| max(1, l^4) for legendre(l).  The
Newton determinant and |grad_S f|^2 multiply two tangential derivatives,
so the square of the summed bounds on those must be finite too; a
bump's is |coef| e^{2 max(0, -k)} max(1, |k|), the others' the term bound.

Every term carries closed-form ambient gradient and Hessian, from which
the surface gradient and tangent Hessian follow, and from the tangent
Hessian the surface Laplacian (its trace, n = 2):

    grad_S f = (I - x x^T) grad F
    Hess_S f(v, w) = v^T hess F w - (x . grad F) <v, w>   (v, w tangent)
    lap_S  f = tr Hess_S f = tr(hess F) - x^T hess F x - n (x . grad F)
"""

import re
from functools import cached_property

import numpy as np
from numpy.polynomial import legendre as npleg

from .conformal import unit_direction
from .errors import SpecParseError
from .spectral import sphere_points

# extrema scans a lattice of this many colatitudes by twice as many longitudes.
_EXTREMA_PROBE = 64
# newton_critical accepts a seed still moving after its last step at this |grad_S f|.
_GRAD_TOL = 1e-8
# Largest degree of a monomial and of legendre(l).  A Legendre term costs
# O(l) to build and to evaluate (legendre(10^9) would run for hours), and
# a degree beyond a double or an index cannot be evaluated at all.
_MAX_DEGREE = 10_000


class _Mono:
    def __init__(self, coef, powers):
        self.coef = float(coef)
        self.powers = tuple(int(p) for p in powers)

    def _derivative(self, xyz, axes):
        """coef * prod_k x_k^{p_k} at component-first points xyz (3, ...), differentiated along each axis in axes.

        Callers skip the axes that differentiate a power away (that derivative is 0); with no power left it is c.
        """
        c, exps = self.coef, list(self.powers)
        for k in axes:
            c *= exps[k]
            exps[k] -= 1
        out = c
        for k, e in enumerate(exps):
            if e:
                out = out * xyz[k] ** e
        return out

    def value(self, xyz):
        return self._derivative(xyz, ())

    def add_grad(self, xyz, acc):
        for i, a in enumerate(self.powers):
            if a:
                acc[i] += self._derivative(xyz, (i,))

    def add_hess(self, xyz, acc):
        for i in range(3):
            for j in range(3):
                if self.powers[i] and self.powers[j] > (i == j):
                    acc[j, i] += self._derivative(xyz, (i, j))

    def bound(self):
        b = abs(self.coef) * max(1.0, sum(self.powers) ** 2)
        return b, b

    def __repr__(self):
        return f"{self.coef}*x^{self.powers[0]}y^{self.powers[1]}z^{self.powers[2]}"


class _Bump:
    def __init__(self, coef, k, p):
        self.coef = float(coef)
        self.k = float(k)
        try:
            self.p = unit_direction(p, "bump direction")
        except ValueError as exc:
            raise SpecParseError(str(exc)) from exc

    def _decay(self, xyz):
        # an elementwise dot, so a point rounds alike alone or stacked (a matmul does not)
        return np.exp(-self.k * (1.0 - _dot3(xyz, self.p)))

    def value(self, xyz):
        return self.coef * self._decay(xyz)

    def add_grad(self, xyz, acc):
        acc += np.multiply.outer(self.p, self.coef * self.k * self._decay(xyz))

    def add_hess(self, xyz, acc):
        acc += np.multiply.outer(np.outer(self.p, self.p), self.coef * self.k**2 * self._decay(xyz))

    def bound(self):
        scale = abs(self.coef) * np.exp(2.0 * max(0.0, -self.k))
        return scale * max(1.0, self.k * self.k), scale * max(1.0, abs(self.k))

    def __repr__(self):
        return f"{self.coef}*bump({self.k}; {self.p})"


class _Legendre:
    def __init__(self, coef, l):
        self.coef = float(coef)
        self.l = int(l)
        base = npleg.Legendre.basis(self.l)
        self._p = base
        self._dp = base.deriv()
        self._ddp = base.deriv(2)

    def value(self, xyz):
        return self.coef * self._p(xyz[2])

    def add_grad(self, xyz, acc):
        acc[2] += self.coef * self._dp(xyz[2])

    def add_hess(self, xyz, acc):
        acc[2, 2] += self.coef * self._ddp(xyz[2])

    def bound(self):
        b = abs(self.coef) * max(1.0, float(self.l) ** 4)
        return b, b

    def __repr__(self):
        return f"{self.coef}*P_{self.l}(z)"


_NUMBER = r"[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
_FUNC_RE = re.compile(r"(bump|legendre)\(([^()]*)\)")
_COORD_RE = re.compile(r"([xyz])(?:\^(\d+))?")
_LEAD_NUM_RE = re.compile(rf"^({_NUMBER})")


def _split_terms(text):
    """Split on top-level + and -, returning (sign, fragment) pairs."""
    frags, sign, depth, start = [], 1.0, 0, 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise SpecParseError(f"unbalanced ')' in {text!r}")
        elif ch in "+-" and re.search(r"[0-9.][eE]$", text[start:i]):
            pass  # the sign of an exponent, as in 1e-3
        elif ch in "+-" and depth == 0 and i > start:
            frags.append((sign, text[start:i]))
            sign = 1.0 if ch == "+" else -1.0
            start = i + 1
        elif ch in "+-" and depth == 0 and i == start:
            # leading sign of a term
            if ch == "-":
                sign = -sign
            start = i + 1
        i += 1
    if depth != 0:
        raise SpecParseError(f"unbalanced '(' in {text!r}")
    frags.append((sign, text[start:]))
    return frags


def _degree(digits, what, frag):
    """The integer written as digits, a degree in [0, _MAX_DEGREE]; SpecParseError otherwise."""
    try:
        value = int(digits)
    except ValueError:  # not an integer, or more digits than int() converts
        value = -1
    if not 0 <= value <= _MAX_DEGREE:
        raise SpecParseError(f"{what} in term {frag!r} must be an integer from 0 to {_MAX_DEGREE}")
    return value


def _parse_term(sign, frag, original):
    frag = frag.strip()
    if not frag:
        raise SpecParseError(f"empty term in {original!r}")
    funcs = list(_FUNC_RE.finditer(frag))
    rest = _FUNC_RE.sub(" ", frag)
    rest = rest.replace("*", " ").replace(" ", "")
    coef = sign
    m = _LEAD_NUM_RE.match(rest)
    if m:
        coef *= float(m.group(1))
        rest = rest[m.end():]
        if not np.isfinite(coef):
            raise SpecParseError(f"coefficient {m.group(1)} in term {frag!r} is not a finite number")
    coords = list(_COORD_RE.finditer(rest))
    leftover = _COORD_RE.sub("", rest)
    if leftover:
        raise SpecParseError(f"cannot parse {leftover!r} in term {frag!r} of {original!r}")
    if funcs and coords:
        raise SpecParseError(f"term {frag!r}: products of bump/legendre with coordinates are not supported")
    if len(funcs) > 1:
        raise SpecParseError(f"term {frag!r}: at most one bump/legendre per term")
    if funcs:
        name, args = funcs[0].group(1), funcs[0].group(2)
        if name == "bump":
            parts = args.split(";")
            if len(parts) != 2:
                raise SpecParseError(f"bump needs 'k; px,py,pz', got {args!r}")
            try:
                k = float(parts[0])
                p = [float(v) for v in parts[1].split(",")]
            except ValueError as exc:
                raise SpecParseError(f"bad bump arguments {args!r}") from exc
            if len(p) != 3:
                raise SpecParseError(f"bump direction needs three components, got {args!r}")
            if not np.all(np.isfinite([k, *p])):
                raise SpecParseError(f"bump arguments must be finite numbers, got {args!r}")
            return _Bump(coef, k, p)
        return _Legendre(coef, _degree(args.strip(), "legendre degree", frag))
    powers = [0, 0, 0]
    for cm in coords:
        powers["xyz".index(cm.group(1))] += _degree(cm.group(2) or "1", "power", frag)
    if sum(powers) > _MAX_DEGREE:
        raise SpecParseError(f"monomial degree in term {frag!r} must be at most {_MAX_DEGREE}")
    return _Mono(coef, powers)


def parse_f_spec(text):
    """Parse a function specification string into a PrescribedFunction."""
    if not isinstance(text, str) or not text.strip():
        raise SpecParseError("function specification must be a nonempty string")
    terms = [_parse_term(sign, frag, text) for sign, frag in _split_terms(text.strip())]
    with np.errstate(over="ignore", invalid="ignore"):
        bound, tangential = np.sum([t.bound() for t in terms], axis=0, dtype=np.float64)
        if not np.isfinite(bound) or not np.isfinite(tangential * tangential):
            raise SpecParseError(f"{text.strip()!r} overflows: a bound on its value and derivatives, their sum, "
                                 "or the square of the tangential ones, is not finite")
    return PrescribedFunction(terms, source=text.strip())


class PrescribedFunction:
    """Sum of closed-form terms with analytic derivatives on the sphere."""

    def __init__(self, terms, source=""):
        self.terms = list(terms)
        self.source = source

    def __call__(self, pts):
        xyz = np.asarray(pts, dtype=float).T
        out = np.zeros_like(xyz[0])
        for t in self.terms:
            out = out + t.value(xyz)
        return out.T

    def ambient_grad(self, pts):
        """grad F at points (..., 3), laid out as pts: each term adds its gradient into the one (3, ...) view g.T."""
        pts = np.asarray(pts, dtype=float)
        g = np.zeros_like(pts)
        for t in self.terms:
            t.add_grad(pts.T, g.T)
        return g

    def ambient_hess(self, pts):
        """hess F (..., 3, 3) at points (..., 3): each term adds its Hessian into the one (3, 3, ...) view h.T."""
        pts = np.asarray(pts, dtype=float)
        h = np.zeros(pts.shape[:-1] + (3, 3))
        for t in self.terms:
            t.add_hess(pts.T, h.T)
        return h

    def grad_sphere(self, pts):
        """Tangential gradient (I - x x^T) grad F at unit vectors, laid out as ambient_grad."""
        pts = np.asarray(pts, dtype=float)
        g = self.ambient_grad(pts)
        gT = g.T
        gT -= _dot3(pts.T, gT) * pts.T
        return g

    def tangent_hessian(self, x):
        """2x2 Hessians in orthonormal tangent bases at unit vectors x (..., 3).

        Returns (H, basis), shapes (..., 2, 2) and (..., 2, 3), with the
        tangent vectors as the rows of basis.
        """
        x = np.asarray(x, dtype=float)
        basis = tangent_basis(x)
        radial = _dot3(x.T, self.ambient_grad(x).T).T[..., None, None]
        H = basis @ self.ambient_hess(x) @ np.swapaxes(basis, -1, -2) - radial * np.eye(2)
        return H, basis

    def newton_critical(self, seeds):
        """Newton iteration for grad_S f = 0 from every seed of a (k, 3) stack at once.

        Returns (x, ok).  A seed freezes once |g| <= 1e-13 (ok), or when its
        tangent Hessian is singular (not ok); steps are clipped to length
        0.7, and a seed still moving after 80 steps is ok if |grad f| <= _GRAD_TOL.
        """
        x = seeds / np.linalg.norm(seeds, axis=-1, keepdims=True)
        ok = np.ones(len(x), dtype=bool)
        live = np.arange(len(x))
        for _ in range(80):
            H, basis = self.tangent_hessian(x[live])
            g = (basis @ self.grad_sphere(x[live])[:, :, None])[:, :, 0]
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
        ok[live] = np.linalg.norm(self.grad_sphere(x[live]), axis=-1) <= _GRAD_TOL
        return x, ok

    def extrema(self):
        """(min, max) over the sphere: the lattice argmin and argmax polished by newton_critical.

        Computed once per function: a parsed target is never mutated.
        """
        return self._extrema

    @cached_property
    def _extrema(self):
        lattice = probe_lattice(np.linspace(0, np.pi, _EXTREMA_PROBE),
                                np.linspace(0, 2 * np.pi, 2 * _EXTREMA_PROBE, endpoint=False))
        vals = self(lattice)
        x, _ = self.newton_critical(lattice[np.unravel_index([np.argmin(vals), np.argmax(vals)], vals.shape)])
        vmin, vmax = self(x)
        return min(float(vmin), float(vals.min())), max(float(vmax), float(vals.max()))

    def __repr__(self):
        return f"PrescribedFunction({self.source!r})"


def probe_lattice(theta, phi):
    """Unit vectors at every (colatitude, longitude) pair, shape (len(theta), len(phi), 3), stored component-first.

    As in Grid.nodes, each coordinate [..., i] is contiguous.  Outer products of the 1-D sines and
    cosines: the same values, bit for bit, as taking sin and cos over the meshgrid of theta and phi.
    """
    return sphere_points(np.sin(theta)[:, None], np.cos(theta)[:, None], phi).transpose(1, 2, 0)


def _dot3(a, b):
    """a . b over the leading axis of component-first stacks (3, ...), added as np.sum adds a trailing axis of 3."""
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def tangent_basis(x):
    """Two orthonormal tangent vectors at unit vectors x (..., 3), as rows (..., 2, 3).

    Closed form of v1 = x x a / |x x a| and v2 = x x v1 with a = e_z, which
    is (y, -x, 0) / r and (xz, yz, -r^2) / r for r^2 = x^2 + y^2.  Where
    |z| >= 0.9, a = e_x, the same form in the cycled coordinates (y, z, x).
    """
    x = np.asarray(x, dtype=float)
    polar = np.abs(x[..., 2:]) >= 0.9
    a, b, c = np.moveaxis(np.where(polar, x[..., [1, 2, 0]], x), -1, 0)
    r = np.sqrt(a * a + b * b)
    basis = np.stack([b, -a, np.zeros_like(r), a * c, b * c, -r * r], axis=-1) / r[..., None]
    return np.where(polar, basis[..., [2, 0, 1, 5, 3, 4]], basis).reshape(x.shape[:-1] + (2, 3))
