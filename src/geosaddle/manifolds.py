"""Geometry kernels for the manifolds the solvers run on.

Four spaces are supported, each with exact exponential/logarithm maps,
parallel transport along geodesics, the Riemannian metric, and distance:

- ``Euclidean(d)``: flat space, everything reduces to vector arithmetic.
- ``Sphere(d)``: unit vectors in R^d (``d`` is the ambient dimension,
  intrinsic dimension d-1), sectional curvature +1.
- ``Spd(d)``: symmetric positive-definite d x d matrices with the
  affine-invariant metric ``<U, V>_X = tr(X^-1 U X^-1 V)``.
- ``Product``: a tuple of factor manifolds with the metric summed over
  factors. A power of one ``Spd`` descriptor (SPD^N) keeps its payload as
  one (N, n, n) array.

Points and tangent vectors are thin immutable wrappers around numpy
payloads, tagged with the manifold they belong to (and, for tangents, the
base point). Descriptors, points and tangents are immutable, and every
operation is a function of its inputs. An SPD point carries the square-root
factor that its kernels work through (see ``Spd``), so a kernel's bits depend
only on the points passed to it. ``Manifold.point`` and ``Manifold.tangent``
alone coerce a raw payload (into a copy) and check its shape and finiteness;
each space checks only its own invariants, SPD^N in one call.

The SPD payload kernels also accept (..., n, n) stacks, so an oracle over
many SPD matrices makes a few batched kernel calls, not one per matrix, and
every SPD^N operation (exp, log, transport, inner, distance) is one stacked
kernel call rather than a loop over the N factors.

Curvature bounds are carried on the descriptor. For SPD matrices they are
configurable: the affine-invariant metric is nonpositively curved, but some
benchmark setups model the curvature interval as [-1/2, 1], so neither
choice is hard-coded. The length at which the curvature constants are
evaluated is a run setting (``--diameter``), not a descriptor field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "GeometryError",
    "GeodesicNotUniqueError",
    "NumericError",
    "Point",
    "Tangent",
    "Manifold",
    "Euclidean",
    "Sphere",
    "Spd",
    "Product",
    "point_to_json",
    "point_from_json",
]

_SYM_TOL = 1e-10
_UNIT_TOL = 1e-10
_ORTHO_TOL = 1e-10
# Relative eigenvalue floor below which a matrix is rejected as not PD.
_PD_RTOL = 1e-12
# Inner product at or below -1 + this margin marks a sphere antipode.
_ANTIPODE_TOL = 1e-12
# Condition bound above which exp checks its result with an exact eigenvalue solve: a hundredth of the PD
# threshold 1 / _PD_RTOL, so a result under it passes that threshold with room for roundoff.
_BOUND_CHECK = 1e-2 / _PD_RTOL


class GeometryError(Exception):
    """Base class for failures inside geometry kernels."""


class GeodesicNotUniqueError(GeometryError):
    """The geodesic between the two points is not unique (sphere antipodes)."""


class NumericError(GeometryError):
    """Non-finite payloads or an eigenvalue collapse below the PD threshold."""


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetrize (each slice of a stack); applied after every SPD matrix function to kill drift."""
    out = a + a.swapaxes(-1, -2)
    out *= 0.5  # in place: one (..., n, n) temporary fewer, and 0.5 * s is exact in either order
    return out


@dataclass(frozen=True, eq=False)
class Point:
    """A point on a manifold: the descriptor, its raw payload and the payload's factor.

    Payloads: unit vector (sphere), SPD matrix (spd), vector (euclidean),
    tuple of factor payloads (product), or one (N, n, n) array for a power
    of one SPD descriptor (SPD^N). Construct through ``Manifold.point``,
    the one place a payload is coerced and validated.

    ``factor`` is what the kernels at this point work through: the
    read-only square-root factor of an SPD or SPD^N payload (see ``Spd``),
    a tuple of per-factor entries for a mixed product, and None on the
    sphere and in flat space. An SPD payload is read-only too, so the two
    stay in step. A point built without a factor (``Point(m, value)``) gets
    a fresh one in each kernel call that needs it.
    """

    manifold: "Manifold"
    value: object
    factor: object = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Point({self.manifold!r}, {self.value!r})"


@dataclass(frozen=True, eq=False)
class Tangent:
    """A tangent vector at ``base``.

    Supports the linear operations needed by the solvers: addition of
    tangents at the same base point, negation, and scalar multiplication.
    """

    base: Point
    value: object

    @property
    def manifold(self) -> "Manifold":
        return self.base.manifold

    def __add__(self, other: "Tangent") -> "Tangent":
        _require_same_base(self.base, other.base)
        return Tangent(self.base, _payload_add(self.value, other.value))

    def __sub__(self, other: "Tangent") -> "Tangent":
        return self + (-other)

    def __neg__(self) -> "Tangent":
        return Tangent(self.base, _payload_scale(self.value, -1.0))

    def __mul__(self, scalar: float) -> "Tangent":
        return Tangent(self.base, _payload_scale(self.value, float(scalar)))

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tangent(base={self.base!r}, {self.value!r})"


def _payload_add(a, b):
    if isinstance(a, tuple):
        return tuple(_payload_add(x, y) for x, y in zip(a, b))
    return a + b


def _payload_scale(a, s: float):
    if isinstance(a, tuple):
        return tuple(_payload_scale(x, s) for x in a)
    return s * a


def _payload_equal(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_payload_equal(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


def _require_same_base(a: Point, b: Point) -> None:
    if a is b:
        return
    if a.manifold != b.manifold or not _payload_equal(a.value, b.value):
        raise ValueError("tangent vectors live at different base points")


class Manifold:
    """Common surface of every geometry kernel.

    Subclasses implement the payload kernels ``_exp``, ``_log``,
    ``_transport``, ``_inner``, the payload ``_shape`` and the invariant
    checks; the public methods wrap payloads into :class:`Point` /
    :class:`Tangent` and enforce the preconditions (matching descriptors,
    matching base points).
    """

    kind: str = ""

    # -- descriptor data ---------------------------------------------------
    @property
    def dim(self) -> int:
        """Intrinsic dimension."""
        raise NotImplementedError

    @property
    def _shape(self) -> tuple[int, ...]:
        raise NotImplementedError

    # -- payload validation ------------------------------------------------
    def _check_point(self, value):
        """Check the invariants of a coerced point payload beyond its shape and finiteness; return its factor."""

    def _check_tangent(self, x, value) -> None:
        """Check the invariants of a coerced tangent payload at ``x`` beyond its shape and finiteness."""

    def point(self, value) -> Point:
        """Wrap and validate a copy of a raw payload as a point on this manifold."""
        value = self._coerce(value, "point")
        return Point(self, value, self._check_point(value))

    def reread(self, p: Point) -> Point:
        """``p`` with a factor that depends on its payload alone: ``p`` itself when :meth:`point` made its SPD
        or SPD^N factor, else ``point(p.value)`` (a point that exp made, or one without a factor, is read again)."""
        self._require_mine(p)
        return p if isinstance(p.factor, _Factor) and p.factor.s is None else self.point(p.value)

    def tangent(self, x: Point, value) -> Tangent:
        """Wrap and validate a raw payload as a tangent vector at ``x``."""
        self._require_mine(x)
        value = self._coerce(value, "tangent")
        self._check_tangent(x.value, value)
        return Tangent(x, value)

    def _coerce(self, value, what: str):
        """A float copy of the payload, of this manifold's shape with finite entries."""
        value = np.array(value, dtype=float)
        if value.shape != self._shape:
            raise ValueError(f"expected shape {self._shape}, got {value.shape}")
        if not np.isfinite(value).all():
            raise NumericError(f"{what} contains non-finite entries")
        return value

    def _require_mine(self, p: Point) -> None:
        # Identity first: the dataclass != walks every factor of a Product.
        if p.manifold is not self and p.manifold != self:
            raise ValueError(f"point belongs to {p.manifold!r}, not {self!r}")

    # -- operations ----------------------------------------------------------
    def exp(self, x: Point, v: Tangent) -> Point:
        """Follow the geodesic from ``x`` with initial velocity ``v`` for unit time."""
        self._require_mine(x)
        _require_same_base(v.base, x)
        return Point(self, *self._exp(x.value, v.value, x.factor))

    def log(self, x: Point, y: Point) -> Tangent:
        """Inverse of :meth:`exp`: the tangent at ``x`` pointing to ``y``."""
        self._require_mine(x)
        self._require_mine(y)
        return Tangent(x, self._log(x.value, y.value, x.factor))

    def transport(self, x: Point, y: Point, v: Tangent) -> Tangent:
        """Parallel transport of ``v`` along the geodesic from ``x`` to ``y``."""
        self._require_mine(x)
        self._require_mine(y)
        _require_same_base(v.base, x)
        return Tangent(y, self._transport(x.value, y.value, v.value, y.factor))

    def inner(self, u: Tangent, v: Tangent) -> float:
        """Riemannian inner product of two tangents at the same base point."""
        _require_same_base(u.base, v.base)
        self._require_mine(u.base)
        return float(self._inner(u.base.value, u.value, v.value))

    def norm(self, v: Tangent) -> float:
        return math.sqrt(max(self.inner(v, v), 0.0))

    def distance(self, x: Point, y: Point) -> float:
        """Geodesic distance, equal to the norm of ``log(x, y)``."""
        self._require_mine(x)
        self._require_mine(y)
        return float(self._distance(x.value, y.value, x.factor))

    # -- randomness ----------------------------------------------------------
    def random_point(self, rng: np.random.Generator) -> Point:
        return self.point(self._random_point(rng))

    def random_tangent(self, x: Point, rng: np.random.Generator, scale: float = 1.0) -> Tangent:
        """Random tangent at ``x`` with norm exactly ``scale``."""
        if not scale > 0:
            raise ValueError("scale must be positive")
        self._require_mine(x)
        v = Tangent(x, self._gauss_tangent(x.value, rng, x.factor))
        n = self.norm(v)
        if n == 0.0:  # pragma: no cover - probability zero
            return self.random_tangent(x, rng, scale)
        return v * (scale / n)

    def standard_gaussian_tangent(self, x: Point, rng: np.random.Generator) -> Tangent:
        """Isotropic Gaussian tangent with unit variance per intrinsic coordinate.

        Satisfies E[|v|^2] = dim; the noise model scales this draw to hit a
        prescribed second moment exactly.
        """
        self._require_mine(x)
        return Tangent(x, self._gauss_tangent(x.value, rng, x.factor))

    # -- payload kernels (implemented by subclasses) --------------------------
    # Each takes the factor of the point it works at (fx at x; fy at y for transport), None for a fresh one.
    def _exp(self, x, v, fx=None):
        """The payload of exp_x(v) and its factor."""
        raise NotImplementedError

    def _log(self, x, y, fx=None):
        raise NotImplementedError

    def _transport(self, x, y, v, fy=None):
        raise NotImplementedError

    def _inner(self, x, u, v) -> float:
        raise NotImplementedError

    def _distance(self, x, y, fx=None) -> float:
        v = self._log(x, y, fx)
        return math.sqrt(max(self._inner(x, v, v), 0.0))

    def _random_point(self, rng):
        raise NotImplementedError

    def _gauss_tangent(self, x, rng, fx=None):
        raise NotImplementedError


@dataclass(frozen=True)
class Euclidean(Manifold):
    """Flat R^d. Exp/log are vector addition/subtraction, transport is identity."""

    d: int
    kind: str = field(default="euclidean", init=False)
    kappa_min: float = field(default=0.0, init=False)
    kappa_max: float = field(default=0.0, init=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def dim(self) -> int:
        return self.d

    @property
    def _shape(self) -> tuple[int, ...]:
        return (self.d,)

    def _exp(self, x, v, fx=None):
        return x + v, None

    def _log(self, x, y, fx=None):
        return y - x

    def _transport(self, x, y, v, fy=None):
        return v.copy()

    def _inner(self, x, u, v) -> float:
        return float(np.dot(u, v))

    def _random_point(self, rng):
        return rng.standard_normal(self.d)

    def _gauss_tangent(self, x, rng, fx=None):
        return rng.standard_normal(self.d)


@dataclass(frozen=True)
class Sphere(Manifold):
    """Unit sphere {x in R^d : |x| = 1}; ``d`` is the ambient dimension.

    Sectional curvature is identically +1, so the descriptor carries the
    interval [0, 1] (a lower bound need not be tight, only valid). Antipodal
    pairs have no unique geodesic and are rejected.
    """

    d: int
    kind: str = field(default="sphere", init=False)
    kappa_min: float = field(default=0.0, init=False)
    kappa_max: float = field(default=1.0, init=False)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("ambient dimension must be >= 2")

    @property
    def dim(self) -> int:
        return self.d - 1

    @property
    def _shape(self) -> tuple[int, ...]:
        return (self.d,)

    def _check_point(self, value) -> None:
        n = np.linalg.norm(value)
        if abs(n - 1.0) > _UNIT_TOL:
            raise ValueError(f"sphere point must have unit norm, got {n!r}")

    def _check_tangent(self, x, value) -> None:
        dot = abs(float(np.dot(x, value)))
        if dot > _ORTHO_TOL * max(1.0, float(np.linalg.norm(value))):
            raise ValueError(f"sphere tangent must be orthogonal to base, <x,v>={dot!r}")

    def project_tangent(self, x, ambient: np.ndarray) -> np.ndarray:
        """Orthogonal projection of an ambient vector onto the tangent space."""
        return ambient - np.dot(x, ambient) * x

    def _exp(self, x, v, fx=None):
        with np.errstate(over="ignore", invalid="ignore"):  # a huge tangent fails below, without a warning
            theta = np.linalg.norm(v)
        if theta == 0.0:
            return x.copy(), None
        if not math.isfinite(theta):
            raise NumericError("sphere exp: non-finite tangent")
        out = math.cos(theta) * x + math.sin(theta) * (v / theta)
        return out / np.linalg.norm(out), None

    def _log(self, x, y, fx=None):
        dot = float(np.dot(x, y))
        if dot <= -1.0 + _ANTIPODE_TOL:
            raise GeodesicNotUniqueError("antipodal points on the sphere")
        u = y - dot * x
        nu = np.linalg.norm(u)
        theta = math.atan2(nu, dot)
        if nu < 1e-300:
            return np.zeros_like(x)
        return u * (theta / nu)

    def _transport(self, x, y, v, fy=None):
        u = self._log(x, y)
        theta = np.linalg.norm(u)
        if theta == 0.0:
            return v.copy()
        e = u / theta
        coeff = float(np.dot(e, v))
        # Rotate the along-geodesic component in the span{x, e} plane.
        return v + coeff * ((math.cos(theta) - 1.0) * e - math.sin(theta) * x)

    def _inner(self, x, u, v) -> float:
        return float(np.dot(u, v))

    def _random_point(self, rng):
        g = rng.standard_normal(self.d)
        return g / np.linalg.norm(g)

    def _gauss_tangent(self, x, rng, fx=None):
        return self.project_tangent(x, rng.standard_normal(self.d))


def _slice_name(bad: np.ndarray) -> str:
    """Name the first flagged slice of a per-slice mask: ' of slice i, j', or '' for a lone matrix."""
    if bad.ndim == 0:
        return ""
    return f" of slice {', '.join(map(str, np.unravel_index(np.flatnonzero(bad)[0], bad.shape)))}"


def _check_pd(w: np.ndarray, what: str, bound: Optional[np.ndarray] = None) -> None:
    """Reject ascending eigenvalue rows (..., n) of a non-PD slice by index, with exp's beta ``bound`` if given."""
    finite = np.isfinite(w).all(axis=-1)
    if not finite.all():
        raise NumericError(f"{what}: non-finite eigenvalues{_slice_name(~finite)}")
    lo = w[..., 0]
    bad = (lo <= _PD_RTOL * np.maximum(w[..., -1], 0.0)) | (lo <= 0.0)
    if bad.any():
        note = "" if bound is None else f" (condition bound {float(bound[bad].flat[0]):.3e})"
        at = f"{float(lo[bad].flat[0]):.3e}{_slice_name(bad)}"
        raise NumericError(f"{what}: eigenvalue {at} below the PD threshold{note}")


def _eigh_checked(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix or (..., n, n) stack, rejecting non-PD slices by index."""
    w, q = np.linalg.eigh(_sym(a))
    _check_pd(w, what)
    return w, q


def _squared_norms(a: np.ndarray) -> np.ndarray:
    """The squared Frobenius norm of a matrix or of each slice of a (..., n, n) stack."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    # vecdot runs the same BLAS dot as np.linalg.norm of one C-ordered matrix, so a 2-D call keeps its bits.
    return np.vecdot(flat, flat)


def _require_symmetric(a: np.ndarray, what: str) -> None:
    """Reject a matrix or (..., n, n) stack with a slice whose skew part passes _SYM_TOL of its norm."""
    bad = np.sqrt(_squared_norms(a - a.swapaxes(-1, -2))) > _SYM_TOL * np.maximum(np.sqrt(_squared_norms(a)), 1.0)
    if bad.any():
        raise ValueError(f"{what}{_slice_name(bad)} must be symmetric")


def _spectral(q: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Q diag(f) Q^T for each slice of eigenvector stacks ``q`` (..., n, n) and values ``f`` (..., n).

    With G Q for ``q`` it is G Q diag(f) Q^T G^T, a matrix function in whitened coordinates mapped back.
    """
    return _sym((q * f[..., None, :]) @ q.swapaxes(-1, -2))


def _inv_sqrt(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Q diag(w)^-1/2 Q^T for each slice; it divides by sqrt(w), which rounds unlike _spectral(q, 1 / sqrt(w))."""
    return _sym((q / np.sqrt(w)[..., None, :]) @ q.swapaxes(-1, -2))


def _congruence(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """A M A^T for each slice of ``a`` and ``m`` (either may be one matrix against a stack)."""
    return a @ m @ a.swapaxes(-1, -2)


def _spd_stack(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """A matrix ``x`` followed by ``ys`` (one matrix or an (N, n, n) stack), as a new (N+1, n, n) array.

    :func:`_stacked_factor` and :func:`_split_factor` stack and split its factor the same way.
    """
    return np.concatenate((x[None], ys.reshape(-1, *x.shape)))


def _root_sum_squares(dists: list[float]) -> float:
    """The product distance of per-factor distances, added left to right."""
    # Square scalars: a float and a numpy scalar both call libm pow, while an array's ** 2 multiplies.
    return math.sqrt(sum(d**2 for d in dists))


class _Factor(NamedTuple):
    """A square-root factor of an SPD payload: per slice X = G G^T, with G^-1.

    An exp result also keeps its base point's payload, which the log back to it recognises by identity, and
    the eigenvalues ``s`` of the exp's whitened velocity, so that log is -G diag(s) G^T; ``s`` is None only on
    a factor read from its payload alone (:func:`_root_factor`). Made by :func:`_read_only_factor`.
    """

    g: np.ndarray
    g_inv: np.ndarray
    base: Optional[np.ndarray] = None
    s: Optional[np.ndarray] = None


def _read_only_factor(g, g_inv, base=None, s=None) -> _Factor:
    """A :class:`_Factor` with its own arrays read-only; ``base`` is only referred to."""
    for a in (g, g_inv, s):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return _Factor(g, g_inv, base, s)


def _root_factor(x: np.ndarray) -> _Factor:
    """G = X^1/2 of each slice of a payload, with G^-1, from one checked decomposition. A non-PD payload
    raises, as ``SPD point``."""
    w, q = _eigh_checked(x, "SPD point")
    return _read_only_factor(_spectral(q, np.sqrt(w)), _inv_sqrt(q, w))


def _factor_of(x: np.ndarray, f: Optional[_Factor]) -> _Factor:
    """The factor ``f`` of payload ``x``, or a fresh one when its point was built without one."""
    return _root_factor(x) if f is None else f


def _stacked_factor(fx: _Factor, fys: _Factor) -> _Factor:
    """The factor of ``_spd_stack(x, ys)`` from the factors of x and ys, for the kernels at the stack."""
    return _read_only_factor(_spd_stack(fx.g, fys.g), _spd_stack(fx.g_inv, fys.g_inv))


def _split_factor(f: _Factor, shape: tuple[int, ...]) -> tuple[_Factor, _Factor]:
    """The factors of x and of ys (of ``shape``) as views of the factor ``f`` of ``_spd_stack(x, ys)``; each
    keeps its part of an exp's ``s`` (so it is not taken for a root), but no base for the log shortcut."""
    s_x, s_ys = (None, None) if f.s is None else (f.s[0], f.s[1:].reshape(shape[:-1]))
    return _Factor(f.g[0], f.g_inv[0], s=s_x), _Factor(f.g[1:].reshape(shape), f.g_inv[1:].reshape(shape), s=s_ys)


def _whiten(f: _Factor, y: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The checked eigenpairs (w, q) of G^-1 Y G^-T for the factor ``f`` of X and a matrix or stack ``y``."""
    return _eigh_checked(_congruence(f.g_inv, y), what)


@dataclass(frozen=True)
class Spd(Manifold):
    """SPD matrices with the affine-invariant metric.

    Every kernel works through a square-root factor G of its base point,
    X = G G^T: exp_X(V) = G expm(G^-1 V G^-T) G^T and its inverse for the
    log map; parallel transport is V -> E V E^T with E = (Y X^-1)^1/2,
    computed here in the congruence form E = G_Y S^-1/2 G_Y^-1 with
    S = G_Y^-1 X G_Y^-T so that only symmetric eigendecompositions appear.
    No result depends on which factor G is, except in its last bits. Every
    matrix function is re-symmetrized to suppress roundoff drift.

    The payload kernels broadcast over (..., n, n) stacks in any argument,
    giving each slice the same bits as a call on that slice alone. Each
    point carries its factor and G^-1 (``Point.factor``). ``Manifold.point``
    and ``random_point`` make G = X^1/2 from the decomposition that
    validates X. exp makes its result's factor with no new decomposition:
    if G^-1 V G^-T = Q diag(s) Q^T, then exp_X(V) = F F^T with
    F = G Q diag(e^(s/2)), F^-1 = diag(e^(-s/2)) Q^T G^-1, and the log back
    to X (the same payload object) is -F diag(s) F^T. Each slice's
    beta = |F|_F^2 |F^-1|_F^2 is at least cond(F F^T); exp checks its result
    with an exact eigenvalue solve only when a beta passes 1e-2 / ``_PD_RTOL``
    or is not finite, so a result that is not PD fails in exp, as
    ``SPD exp``, naming its slice and that slice's beta as its bound.
    """

    n: int
    kappa_min: float = -0.5
    kappa_max: float = 1.0
    kind: str = field(default="spd", init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix dimension must be >= 1")
        if self.kappa_min > 0 or self.kappa_min > self.kappa_max:
            raise ValueError("need kappa_min <= 0 and kappa_min <= kappa_max")

    @property
    def dim(self) -> int:
        return self.n * (self.n + 1) // 2

    @property
    def _shape(self) -> tuple[int, ...]:
        return (self.n, self.n)

    def _check_point(self, value) -> _Factor:
        _require_symmetric(value, "SPD point")
        value.flags.writeable = False  # the coerced copy keeps the factor made from it
        return _root_factor(value)

    def _check_tangent(self, x, value) -> None:
        _require_symmetric(value, "SPD tangent")

    def _exp(self, x, v, fx=None):
        base = _factor_of(x, fx)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # huge or underflowed: fail or check below
            try:
                s, q = np.linalg.eigh(_sym(_congruence(base.g_inv, v)))
            except np.linalg.LinAlgError as e:  # a non-finite tangent can stop eigh converging
                raise NumericError(f"SPD exp: {e}") from e
            if not np.isfinite(s).all():
                bad = ~np.isfinite(s).all(axis=-1)
                raise NumericError(f"SPD exp: non-finite sandwich eigenvalues{_slice_name(bad)}")
            # F = G Q diag(e^(s/2)); a finite e^s near the float limit can still overflow in F F^T.
            h = np.exp(0.5 * s)
            g = base.g @ (q * h[..., None, :])
            g_inv = (q / h[..., None, :]).swapaxes(-1, -2) @ base.g_inv
            out = _sym(g @ g.swapaxes(-1, -2))
            beta = _squared_norms(g) * _squared_norms(g_inv)
        if not np.isfinite(out).all():
            bad = ~np.isfinite(out).all(axis=(-2, -1))
            raise NumericError(f"SPD exp: overflow in matrix exponential{_slice_name(bad)}")
        if not (beta <= _BOUND_CHECK).all():  # a NaN or infinite beta is checked too
            _check_pd(np.linalg.eigvalsh(out), "SPD exp", beta)
        out.flags.writeable = False  # the factor below stays this payload's
        return out, _read_only_factor(g, g_inv, x, s)

    def _log(self, x, y, fx=None):
        f = _factor_of(x, fx)
        if f.base is y:  # x = exp_y(V)
            return _spectral(f.g, -f.s)
        w, q = _whiten(f, y, "SPD log")
        return _spectral(f.g @ q, np.log(w))  # G Q diag(log w) Q^T G^T

    def _transport(self, x, y, v, fy=None):
        f = _factor_of(y, fy)
        w, q = _whiten(f, x, "SPD transport")
        e = f.g @ _inv_sqrt(q, w) @ f.g_inv
        return _sym(e @ v @ e.swapaxes(-1, -2))

    def _inner(self, x, u, v):
        a = np.linalg.solve(x, u)
        b = a if v is u else np.linalg.solve(x, v)  # a norm solves once
        return np.trace(a @ b, axis1=-2, axis2=-1)

    def _distance(self, x, y, fx=None):
        w, _ = _whiten(_factor_of(x, fx), y, "SPD distance")
        lw = np.log(w)
        # vecdot runs the same BLAS dot as np.linalg.norm of one vector, so a 2-D pair keeps its bits.
        return np.sqrt(np.vecdot(lw, lw))

    def _random_point(self, rng):
        q = random_orthogonal(self.n, rng)
        lam = rng.uniform(0.5, 2.0, size=self.n)
        return _spectral(q, lam)

    def _gauss_tangent(self, x, rng, fx=None):
        # Whitened coordinates: G S G^T has metric norm |S|_F, and S = (A + A^T)/2 is the standard
        # Gaussian on Sym(n), whose law no orthogonal U in G = X^1/2 U changes.
        g = _factor_of(x, fx).g
        return _sym(_congruence(g, _sym(rng.standard_normal(x.shape))))


def _naming_factor(i: int, check, *args):
    """Run one factor's check and return its result; re-raise its error, same type, with ' of factor i' added."""
    try:
        return check(*args)
    except (ValueError, GeometryError) as e:
        raise type(e)(f"{e} of factor {i}") from e


@dataclass(frozen=True)
class Product(Manifold):
    """Product of factor manifolds; payloads are tuples of factor payloads.

    The metric is the sum over factors, so squared distances add. The
    curvature interval is the hull of the factor intervals.

    When every factor is the same ``Spd`` descriptor (SPD^N), the payload is
    one (N, n, n) array instead, and exp, log, transport, inner and distance
    each make one stacked ``Spd`` kernel call. The stacked kernels give each
    slice the bits of a per-factor call, and inner and distance add the
    per-factor terms left to right, so the results equal the per-factor loop
    that mixed products run. Random points are drawn factor by factor; a
    Gaussian tangent is one stacked draw of the same numbers. Validation is
    one stacked ``Spd`` check naming a bad slice; a mixed product checks the
    factor count, then lets each factor validate its entry and adds the
    factor's index to its error.

    A point's factor (``Point.factor``) is that of the ``Spd`` stack on
    SPD^N, and on a mixed product the tuple of each factor's entry, None
    for a sphere or flat factor.
    """

    factors: tuple[Manifold, ...]
    kind: str = field(default="product", init=False)
    # The shared factor of SPD^N, whose kernels run on the whole payload; None for any other product.
    _power: Optional[Spd] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.factors:
            raise ValueError("product needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))
        first = self.factors[0]
        if isinstance(first, Spd) and all(f == first for f in self.factors):
            object.__setattr__(self, "_power", first)

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    @property
    def kappa_min(self) -> float:
        return min(f.kappa_min for f in self.factors)

    @property
    def kappa_max(self) -> float:
        return max(f.kappa_max for f in self.factors)

    @property
    def _shape(self) -> tuple[int, ...]:
        return (len(self.factors), *self._power._shape)

    def _check_point(self, value):
        if self._power is not None:
            return self._power._check_point(value)
        return tuple(_naming_factor(i, f._check_point, v) for i, (f, v) in enumerate(zip(self.factors, value)))

    def _check_tangent(self, x, value) -> None:
        if self._power is not None:
            return self._power._check_tangent(x, value)
        for i, (f, xv, v) in enumerate(zip(self.factors, x, value)):
            _naming_factor(i, f._check_tangent, xv, v)

    def _coerce(self, value, what: str):
        if self._power is not None:
            return super()._coerce(value, what)
        if not isinstance(value, (tuple, list)):
            raise ValueError("product payload must be a tuple")
        if len(value) != len(self.factors):
            raise ValueError(f"expected {len(self.factors)} factor payloads, got {len(value)}")
        return tuple(f._coerce(v, what) for f, v in zip(self.factors, value))

    def _entries(self, f) -> tuple:
        """A mixed product point's per-factor entries: ``f``, or None for each factor if it has none."""
        return (None,) * len(self.factors) if f is None else f

    def _exp(self, x, v, fx=None):
        if self._power is not None:
            return self._power._exp(x, v, fx)
        out = [f._exp(xi, vi, fi) for f, xi, vi, fi in zip(self.factors, x, v, self._entries(fx))]
        return tuple(y for y, _ in out), tuple(fy for _, fy in out)

    def _log(self, x, y, fx=None):
        if self._power is not None:
            return self._power._log(x, y, fx)
        return tuple(f._log(xi, yi, fi) for f, xi, yi, fi in zip(self.factors, x, y, self._entries(fx)))

    def _transport(self, x, y, v, fy=None):
        if self._power is not None:
            return self._power._transport(x, y, v, fy)
        parts = zip(self.factors, x, y, v, self._entries(fy))
        return tuple(f._transport(xi, yi, vi, fi) for f, xi, yi, vi, fi in parts)

    def _inner(self, x, u, v) -> float:
        if self._power is not None:
            return sum(self._power._inner(x, u, v).tolist())
        return sum(f._inner(xi, ui, vi) for f, xi, ui, vi in zip(self.factors, x, u, v))

    def _distance(self, x, y, fx=None) -> float:
        if self._power is not None:
            return _root_sum_squares(self._power._distance(x, y, fx).tolist())
        parts = zip(self.factors, x, y, self._entries(fx))
        return _root_sum_squares([f._distance(xi, yi, fi) for f, xi, yi, fi in parts])

    def _random_point(self, rng):
        parts = [f._random_point(rng) for f in self.factors]
        return np.stack(parts) if self._power is not None else tuple(parts)

    def _gauss_tangent(self, x, rng, fx=None):
        if self._power is not None:
            return self._power._gauss_tangent(x, rng, fx)
        return tuple(f._gauss_tangent(xi, rng, fi) for f, xi, fi in zip(self.factors, x, self._entries(fx)))


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random orthogonal matrix via QR with a fixed sign convention."""
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


# -- serialization -----------------------------------------------------------


def _payload_to_list(value):
    if isinstance(value, tuple):
        return [_payload_to_list(v) for v in value]
    return np.asarray(value).tolist()


def point_to_json(p: Point) -> dict:
    """Serialize a point as ``{kind, payload}`` with row-major matrix payloads."""
    return {"kind": p.manifold.kind, "payload": _payload_to_list(p.value)}


def point_from_json(m: Manifold, data: dict) -> Point:
    """Rebuild a point on ``m`` from :func:`point_to_json` output."""
    if data.get("kind") != m.kind:
        raise ValueError(f"payload kind {data.get('kind')!r} does not match manifold {m.kind!r}")
    return m.point(data["payload"])
