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
"2 + 0.5 legendre(1)".

Every term carries closed-form ambient gradient and Hessian, from which
the surface gradient, surface Laplacian, and tangent Hessian follow:

    grad_S f = (I - x x^T) grad F
    lap_S  f = tr(hess F) - x^T hess F x - n * (x . grad F)
    Hess_S f(v, w) = v^T hess F w - (x . grad F) <v, w>   (v, w tangent)
"""

import re

import numpy as np
from numpy.polynomial import legendre as npleg

from .curvature import N
from .errors import SpecParseError
from .spectral import BoundaryField

# extrema scans a lattice of this many colatitudes by twice as many longitudes.
_EXTREMA_PROBE = 64


class _Mono:
    def __init__(self, coef, powers):
        self.coef = float(coef)
        self.powers = tuple(int(p) for p in powers)

    def value(self, pts):
        out = np.full(pts.shape[:-1], self.coef)
        for i, a in enumerate(self.powers):
            if a:
                out = out * pts[..., i] ** a
        return out

    def grad(self, pts):
        g = np.zeros(pts.shape)
        for i, a in enumerate(self.powers):
            if not a:
                continue
            part = np.full(pts.shape[:-1], self.coef * a)
            for j, b in enumerate(self.powers):
                e = b - 1 if j == i else b
                if e:
                    part = part * pts[..., j] ** e
            g[..., i] = part
        return g

    def hess(self, pts):
        h = np.zeros(pts.shape[:-1] + (3, 3))
        for i in range(3):
            for j in range(3):
                exps = list(self.powers)
                c = self.coef * exps[i]
                if c == 0:
                    continue
                exps[i] -= 1
                c *= exps[j]
                if c == 0:
                    continue
                exps[j] -= 1
                part = np.full(pts.shape[:-1], float(c))
                for k, e in enumerate(exps):
                    if e:
                        part = part * pts[..., k] ** e
                h[..., i, j] = part
        return h

    def __repr__(self):
        return f"{self.coef}*x^{self.powers[0]}y^{self.powers[1]}z^{self.powers[2]}"


class _Bump:
    def __init__(self, coef, k, p):
        self.coef = float(coef)
        self.k = float(k)
        p = np.asarray(p, dtype=float)
        norm = np.linalg.norm(p)
        if norm == 0:
            raise SpecParseError("bump direction must be a nonzero vector")
        self.p = p / norm

    def _decay(self, pts):
        # an elementwise dot, so a point rounds alike alone or stacked (a matmul does not)
        return np.exp(-self.k * (1.0 - np.sum(pts * self.p, axis=-1)))

    def value(self, pts):
        return self.coef * self._decay(pts)

    def grad(self, pts):
        return (self.coef * self.k * self._decay(pts))[..., None] * self.p

    def hess(self, pts):
        return (self.coef * self.k**2 * self._decay(pts))[..., None, None] * np.outer(self.p, self.p)

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

    def value(self, pts):
        return self.coef * self._p(pts[..., 2])

    def grad(self, pts):
        g = np.zeros(pts.shape)
        g[..., 2] = self.coef * self._dp(pts[..., 2])
        return g

    def hess(self, pts):
        h = np.zeros(pts.shape[:-1] + (3, 3))
        h[..., 2, 2] = self.coef * self._ddp(pts[..., 2])
        return h

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
            return _Bump(coef, k, p)
        try:
            l = int(args.strip())
        except ValueError as exc:
            raise SpecParseError(f"legendre degree must be an integer, got {args!r}") from exc
        if l < 0:
            raise SpecParseError(f"legendre degree must be >= 0, got {l}")
        return _Legendre(coef, l)
    powers = [0, 0, 0]
    for cm in coords:
        idx = "xyz".index(cm.group(1))
        powers[idx] += int(cm.group(2) or 1)
    return _Mono(coef, powers)


def parse_f_spec(text):
    """Parse a function specification string into a PrescribedFunction."""
    if not isinstance(text, str) or not text.strip():
        raise SpecParseError("function specification must be a nonempty string")
    terms = [_parse_term(sign, frag, text) for sign, frag in _split_terms(text.strip())]
    return PrescribedFunction(terms, source=text.strip())


class PrescribedFunction:
    """Sum of closed-form terms with analytic derivatives on the sphere."""

    def __init__(self, terms, source=""):
        self.terms = list(terms)
        self.source = source

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for t in self.terms:
            out = out + t.value(pts)
        return out

    def ambient_grad(self, pts):
        pts = np.asarray(pts, dtype=float)
        g = np.zeros(pts.shape)
        for t in self.terms:
            g = g + t.grad(pts)
        return g

    def ambient_hess(self, pts):
        pts = np.asarray(pts, dtype=float)
        h = np.zeros(pts.shape[:-1] + (3, 3))
        for t in self.terms:
            h = h + t.hess(pts)
        return h

    def grad_sphere(self, pts):
        """Tangential gradient (I - x x^T) grad F at unit vectors."""
        pts = np.asarray(pts, dtype=float)
        g = self.ambient_grad(pts)
        radial = np.sum(pts * g, axis=-1, keepdims=True)
        return g - radial * pts

    def lap_sphere(self, pts):
        """Surface Laplacian at unit vectors."""
        pts = np.asarray(pts, dtype=float)
        g = self.ambient_grad(pts)
        h = self.ambient_hess(pts)
        tr = np.trace(h, axis1=-2, axis2=-1)
        rad2 = np.einsum("...i,...ij,...j->...", pts, h, pts)
        rad1 = np.sum(pts * g, axis=-1)
        return tr - rad2 - N * rad1

    def tangent_hessian(self, x):
        """2x2 Hessians in orthonormal tangent bases at unit vectors x (..., 3).

        Returns (H, basis), shapes (..., 2, 2) and (..., 2, 3), with the
        tangent vectors as the rows of basis.
        """
        x = np.asarray(x, dtype=float)
        basis = _tangent_basis(x)
        radial = np.sum(x * self.ambient_grad(x), axis=-1)[..., None, None]
        H = basis @ self.ambient_hess(x) @ np.swapaxes(basis, -1, -2) - radial * np.eye(2)
        return H, basis

    def gridded(self, grid):
        return BoundaryField(grid, values=self(grid.nodes()))

    def refine_extremum(self, x0, maximize=True, iters=60):
        """Polish an extremum location by Newton on the surface gradient."""
        x = np.asarray(x0, dtype=float)
        x = x / np.linalg.norm(x)
        best_x, best_v = x, float(self(x))
        sign = 1.0 if maximize else -1.0
        for _ in range(iters):
            H, basis = self.tangent_hessian(x)
            g = basis @ self.grad_sphere(x)
            try:
                xi = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(xi)) or np.linalg.norm(xi) > 0.5:
                break
            x_new = x + xi @ basis
            x_new = x_new / np.linalg.norm(x_new)
            v_new = float(self(x_new))
            if sign * (v_new - best_v) >= 0:
                best_x, best_v = x_new, v_new
            if np.linalg.norm(xi) < 1e-13:
                break
            x = x_new
        return best_x, best_v

    def extrema(self):
        """(min, max) over the sphere: dense scan plus Newton polish."""
        th = np.linspace(0, np.pi, _EXTREMA_PROBE)
        ph = np.linspace(0, 2 * np.pi, 2 * _EXTREMA_PROBE, endpoint=False)
        T, P = np.meshgrid(th, ph, indexing="ij")
        pts = np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1)
        vals = self(pts)
        i_max = np.unravel_index(np.argmax(vals), vals.shape)
        i_min = np.unravel_index(np.argmin(vals), vals.shape)
        _, vmax = self.refine_extremum(pts[i_max], maximize=True)
        _, vmin = self.refine_extremum(pts[i_min], maximize=False)
        return min(vmin, float(vals.min())), max(vmax, float(vals.max()))

    def __repr__(self):
        return f"PrescribedFunction({self.source!r})"


def _tangent_basis(x):
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
