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
base point). All operations are pure functions of their inputs; descriptors,
points and tangents can be shared freely across threads. ``Manifold.point``
and ``Manifold.tangent`` alone coerce a raw payload and check its shape and
finiteness; each space checks only its own invariants, SPD^N in one call.

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

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

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
# Base points whose SPD roots are memoized. A solver step with averaging has at most eight live at
# once: the iterate, the half-iterate and the old and new running means, on each of the two sides.
_ROOTS_MEMO_SIZE = 8


class GeometryError(Exception):
    """Base class for failures inside geometry kernels."""


class GeodesicNotUniqueError(GeometryError):
    """The geodesic between the two points is not unique (sphere antipodes)."""


class NumericError(GeometryError):
    """Non-finite payloads or an eigenvalue collapse below the PD threshold."""


def _sym(a: np.ndarray) -> np.ndarray:
    """Symmetrize (each slice of a stack); applied after every SPD matrix function to kill drift."""
    return 0.5 * (a + a.swapaxes(-1, -2))


@dataclass(frozen=True, eq=False)
class Point:
    """A point on a manifold: the descriptor plus its raw payload.

    Payloads: unit vector (sphere), SPD matrix (spd), vector (euclidean),
    tuple of factor payloads (product), or one (N, n, n) array for a power
    of one SPD descriptor (SPD^N). Construct through ``Manifold.point``,
    the one place a payload is coerced and validated.
    """

    manifold: "Manifold"
    value: object

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

    def norm(self) -> float:
        return self.manifold.norm(self)

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
    def _check_point(self, value) -> None:
        """Check the invariants of a coerced point payload beyond its shape and finiteness."""

    def _check_tangent(self, x, value) -> None:
        """Check the invariants of a coerced tangent payload at ``x`` beyond its shape and finiteness."""

    def point(self, value) -> Point:
        """Wrap and validate a raw payload as a point on this manifold."""
        value = self._coerce(value, "point")
        self._check_point(value)
        return Point(self, value)

    def tangent(self, x: Point, value) -> Tangent:
        """Wrap and validate a raw payload as a tangent vector at ``x``."""
        self._require_mine(x)
        value = self._coerce(value, "tangent")
        self._check_tangent(x.value, value)
        return Tangent(x, value)

    def _coerce(self, value, what: str):
        """The payload as a float array of this manifold's shape with finite entries."""
        value = np.asarray(value, dtype=float)
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
        return Point(self, self._exp(x.value, v.value))

    def log(self, x: Point, y: Point) -> Tangent:
        """Inverse of :meth:`exp`: the tangent at ``x`` pointing to ``y``."""
        self._require_mine(x)
        self._require_mine(y)
        return Tangent(x, self._log(x.value, y.value))

    def transport(self, x: Point, y: Point, v: Tangent) -> Tangent:
        """Parallel transport of ``v`` along the geodesic from ``x`` to ``y``."""
        self._require_mine(x)
        self._require_mine(y)
        _require_same_base(v.base, x)
        return Tangent(y, self._transport(x.value, y.value, v.value))

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
        return float(self._distance(x.value, y.value))

    def zero_tangent(self, x: Point) -> Tangent:
        self._require_mine(x)
        return Tangent(x, _payload_scale(x.value, 0.0) if isinstance(x.value, tuple) else np.zeros_like(x.value))

    # -- randomness ----------------------------------------------------------
    def random_point(self, rng: np.random.Generator) -> Point:
        return Point(self, self._random_point(rng))

    def random_tangent(self, x: Point, rng: np.random.Generator, scale: float = 1.0) -> Tangent:
        """Random tangent at ``x`` with norm exactly ``scale``."""
        if not scale > 0:
            raise ValueError("scale must be positive")
        self._require_mine(x)
        v = Tangent(x, self._gauss_tangent(x.value, rng))
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
        return Tangent(x, self._gauss_tangent(x.value, rng))

    # -- payload kernels (implemented by subclasses) --------------------------
    def _exp(self, x, v):
        raise NotImplementedError

    def _log(self, x, y):
        raise NotImplementedError

    def _transport(self, x, y, v):
        raise NotImplementedError

    def _inner(self, x, u, v) -> float:
        raise NotImplementedError

    def _distance(self, x, y) -> float:
        v = self._log(x, y)
        return math.sqrt(max(self._inner(x, v, v), 0.0))

    def _random_point(self, rng):
        raise NotImplementedError

    def _gauss_tangent(self, x, rng):
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

    def _exp(self, x, v):
        return x + v

    def _log(self, x, y):
        return y - x

    def _transport(self, x, y, v):
        return v.copy()

    def _inner(self, x, u, v) -> float:
        return float(np.dot(u, v))

    def _random_point(self, rng):
        return rng.standard_normal(self.d)

    def _gauss_tangent(self, x, rng):
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

    def _exp(self, x, v):
        with np.errstate(over="ignore", invalid="ignore"):  # a huge tangent fails below, without a warning
            theta = np.linalg.norm(v)
        if theta == 0.0:
            return x.copy()
        if not math.isfinite(theta):
            raise NumericError("sphere exp: non-finite tangent")
        out = math.cos(theta) * x + math.sin(theta) * (v / theta)
        return out / np.linalg.norm(out)

    def _log(self, x, y):
        dot = float(np.dot(x, y))
        if dot <= -1.0 + _ANTIPODE_TOL:
            raise GeodesicNotUniqueError("antipodal points on the sphere")
        u = y - dot * x
        nu = np.linalg.norm(u)
        theta = math.atan2(nu, dot)
        if nu < 1e-300:
            return np.zeros_like(x)
        return u * (theta / nu)

    def _transport(self, x, y, v):
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

    def _gauss_tangent(self, x, rng):
        return self.project_tangent(x, rng.standard_normal(self.d))


def _slice_name(bad: np.ndarray) -> str:
    """Name the first flagged slice of a per-slice mask: ' of slice i, j', or '' for a lone matrix."""
    if bad.ndim == 0:
        return ""
    return f" of slice {', '.join(map(str, np.unravel_index(np.flatnonzero(bad)[0], bad.shape)))}"


def _eigh_checked(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix or (..., n, n) stack, rejecting non-PD slices by index."""
    w, q = np.linalg.eigh(_sym(a))
    finite = np.isfinite(w).all(axis=-1)
    if not finite.all():
        raise NumericError(f"{what}: non-finite eigenvalues{_slice_name(~finite)}")
    lo = w[..., 0]
    bad = (lo <= _PD_RTOL * np.maximum(w[..., -1], 0.0)) | (lo <= 0.0)
    if bad.any():
        raise NumericError(f"{what}: eigenvalue {float(lo[bad].flat[0]):.3e}{_slice_name(bad)} below the PD threshold")
    return w, q


def _require_symmetric(a: np.ndarray, what: str) -> None:
    """Reject a matrix or (..., n, n) stack with a slice whose skew part passes _SYM_TOL of its norm."""
    flat = a.reshape(a.shape[:-2] + (-1,))
    skew = (a - a.swapaxes(-1, -2)).reshape(flat.shape)
    # vecdot runs the same BLAS dot as np.linalg.norm of one C-ordered matrix, so a 2-D check keeps its bits.
    bad = np.sqrt(np.vecdot(skew, skew)) > _SYM_TOL * np.maximum(np.sqrt(np.vecdot(flat, flat)), 1.0)
    if bad.any():
        raise ValueError(f"{what}{_slice_name(bad)} must be symmetric")


def _spectral(q: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Q diag(f) Q^T for each slice of eigenvector stacks ``q`` (..., n, n) and values ``f`` (..., n)."""
    return _sym((q * f[..., None, :]) @ q.swapaxes(-1, -2))


@functools.lru_cache(maxsize=_ROOTS_MEMO_SIZE)
def _memo_roots(shape: tuple[int, ...], dtype: str, data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Read-only X^1/2 and X^-1/2 of the payload with these shape, dtype and bytes.

    Keyed on content, not identity, so a payload written in place never meets stale roots. A
    non-PD payload raises, and ``lru_cache`` stores no failure, so it raises again on every call.
    """
    w, q = _eigh_checked(np.frombuffer(data, dtype=dtype).reshape(shape), "SPD point")
    s, qt = np.sqrt(w)[..., None, :], q.swapaxes(-1, -2)
    roots = _sym((q * s) @ qt), _sym((q / s) @ qt)
    for r in roots:
        r.flags.writeable = False
    return roots


@dataclass(frozen=True)
class Spd(Manifold):
    """SPD matrices with the affine-invariant metric.

    exp_X(V) = X^1/2 expm(X^-1/2 V X^-1/2) X^1/2 and its inverse for the
    log map; parallel transport is V -> E V E^T with E = (Y X^-1)^1/2,
    computed here in the congruence form E = Y^1/2 S^-1/2 Y^-1/2 with
    S = Y^-1/2 X Y^-1/2 so that only symmetric eigendecompositions appear.
    Every matrix function is re-symmetrized to suppress roundoff drift.

    The payload kernels broadcast over (..., n, n) stacks in any argument,
    giving each slice the same bits as a call on that slice alone. The roots
    X^1/2, X^-1/2 of a base point (a matrix or a whole stack) are memoized by
    content, so the kernels at one base point share one decomposition.
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

    def _check_point(self, value) -> None:
        _require_symmetric(value, "SPD point")
        _eigh_checked(value, "SPD point")

    def _check_tangent(self, x, value) -> None:
        _require_symmetric(value, "SPD tangent")

    def _roots(self, x) -> tuple[np.ndarray, np.ndarray]:
        """X^1/2 and X^-1/2, read-only; each of the last ``_ROOTS_MEMO_SIZE`` base points is decomposed once."""
        return _memo_roots(x.shape, x.dtype.str, x.tobytes())

    def _whiten(self, x, y, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """X^1/2, X^-1/2 and the checked eigenpairs (w, q) of X^-1/2 Y X^-1/2.

        ``y`` is a matrix, a stack, or a sequence of matrices that the first product stacks.
        """
        half, inv_half = self._roots(x)
        w, q = _eigh_checked(inv_half @ y @ inv_half, what)
        return half, inv_half, w, q

    def _exp(self, x, v):
        half, inv_half = self._roots(x)
        with np.errstate(over="ignore", invalid="ignore"):  # a huge tangent fails below, without a warning
            m = _sym(inv_half @ v @ inv_half)
        try:
            w, q = np.linalg.eigh(m)
        except np.linalg.LinAlgError as e:  # a non-finite tangent can stop eigh converging
            raise NumericError(f"SPD exp: {e}") from e
        finite = np.isfinite(w).all(axis=-1)
        if not finite.all():
            raise NumericError(f"SPD exp: non-finite sandwich eigenvalues{_slice_name(~finite)}")
        # A finite exp(w) near the float limit can still overflow in the congruence, so check the result.
        with np.errstate(over="ignore", invalid="ignore"):
            out = _sym(half @ _spectral(q, np.exp(w)) @ half)
        finite = np.isfinite(out).all(axis=(-2, -1))
        if not finite.all():
            raise NumericError(f"SPD exp: overflow in matrix exponential{_slice_name(~finite)}")
        return out

    def _log(self, x, y):
        half, _, w, q = self._whiten(x, y, "SPD log")
        return _sym(half @ _spectral(q, np.log(w)) @ half)

    def _transport(self, x, y, v):
        y_half, y_inv_half, w, q = self._whiten(y, x, "SPD transport")
        s_inv_half = _sym((q / np.sqrt(w)[..., None, :]) @ q.swapaxes(-1, -2))
        e = y_half @ s_inv_half @ y_inv_half
        return _sym(e @ v @ e.swapaxes(-1, -2))

    def _inner(self, x, u, v):
        a = np.linalg.solve(x, u)
        b = a if v is u else np.linalg.solve(x, v)  # a norm solves once
        return np.trace(a @ b, axis1=-2, axis2=-1)

    def _distance(self, x, y):
        _, _, w, _ = self._whiten(x, y, "SPD distance")
        lw = np.log(w)
        # vecdot runs the same BLAS dot as np.linalg.norm of one vector, so a 2-D pair keeps its bits.
        return np.sqrt(np.vecdot(lw, lw))

    def _random_point(self, rng):
        q = random_orthogonal(self.n, rng)
        lam = rng.uniform(0.5, 2.0, size=self.n)
        return _spectral(q, lam)

    def _gauss_tangent(self, x, rng):
        # Whitened coordinates: X^1/2 S X^1/2 has metric norm |S|_F, and
        # S = (G + G^T)/2 is the standard Gaussian on Sym(n).
        half, _ = self._roots(x)
        g = rng.standard_normal((self.n, self.n))
        s = _sym(g)
        return _sym(half @ s @ half)


def _naming_factor(i: int, check, *args) -> None:
    """Run one factor's check; re-raise its error, same type, with ' of factor i' added."""
    try:
        check(*args)
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
    that mixed products run. Random draws stay factor by factor. Validation is
    one stacked ``Spd`` check naming a bad slice; a mixed product checks the
    factor count, then lets each factor validate its entry and adds the
    factor's index to its error.
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

    def _check_point(self, value) -> None:
        if self._power is not None:
            return self._power._check_point(value)
        for i, (f, v) in enumerate(zip(self.factors, value)):
            _naming_factor(i, f._check_point, v)

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

    def _pack(self, parts):
        return np.stack(parts) if self._power is not None else tuple(parts)

    def _exp(self, x, v):
        if self._power is not None:
            return self._power._exp(x, v)
        return tuple(f._exp(xi, vi) for f, xi, vi in zip(self.factors, x, v))

    def _log(self, x, y):
        if self._power is not None:
            return self._power._log(x, y)
        return tuple(f._log(xi, yi) for f, xi, yi in zip(self.factors, x, y))

    def _transport(self, x, y, v):
        if self._power is not None:
            return self._power._transport(x, y, v)
        return tuple(f._transport(xi, yi, vi) for f, xi, yi, vi in zip(self.factors, x, y, v))

    def _inner(self, x, u, v) -> float:
        if self._power is not None:
            return sum(self._power._inner(x, u, v).tolist())
        return sum(f._inner(xi, ui, vi) for f, xi, ui, vi in zip(self.factors, x, u, v))

    def _distance(self, x, y) -> float:
        if self._power is not None:
            dists = self._power._distance(x, y).tolist()
        else:
            dists = [f._distance(xi, yi) for f, xi, yi in zip(self.factors, x, y)]
        # Square scalars: a float and a numpy scalar both call libm pow, while an array's ** 2 multiplies.
        return math.sqrt(sum(d**2 for d in dists))

    def _random_point(self, rng):
        return self._pack([f._random_point(rng) for f in self.factors])

    def _gauss_tangent(self, x, rng):
        return self._pack([f._gauss_tangent(xi, rng) for f, xi in zip(self.factors, x)])


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
