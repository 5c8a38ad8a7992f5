"""Saddle problems with exact and minibatch gradient oracles.

A :class:`SaddleProblem` is two manifolds and its gradient oracles,
defined apart from the solvers that step it, plus the joint manifold on
which they move the pair as one point.

Three problem families:

- Robust PCA over SPD x sphere: the adversary holds an SPD matrix M, the
  minimizer a unit vector x, with objective
  ``-x^T M x - (alpha/n) * sum_i d(M, M_i)`` over a dataset of SPD matrices.
  Minimized over x (so x chases the top eigenvector of M) and maximized
  over M. The distance penalty is nonsmooth at M = M_i; the zero element
  of the subdifferential is selected there.
- Robust matrix mean over SPD x SPD^N: ``sum_i d(X, Y_i)^2 - gamma *
  sum_i d(Y_i, A_i)^2`` minimized over X and maximized over the perturbed
  anchors Y_i. Strongly convex-concave once gamma outpaces the distortion
  constant of the anchor region (gamma > 1 in flat space).
- A flat bilinear coupling ``x^T B y`` used as the exactness oracle for
  the solver reductions.

Every value and gradient function takes the problem's slot order, the
instance first and then (min point, max point), and a gradient returns
(g_min, g_max); ``make_rpca`` and ``make_karcher`` bind the instance to
the gradient with ``functools.partial``. No solver reads a value:
``rpca_value`` and ``karcher_value`` are what the finite-difference
gradient checks compare against. The robust PCA minibatch sampler is the
problem's ``stochastic_grad(x, M, rng)``; the run's oracle holds the
generator.

Riemannian gradients are hand-derived and are only ever trusted through the
finite-difference directional-derivative check in the test suite. The SPD
gradients use the affine-invariant conversion grad = M sym(euclidean) M and
the geodesic-distance gradients -2 log_X(Y) (squared) and -log_X(Y)/d
(plain).

Both SPD oracles run on the stacked SPD kernels, which take (..., d, d)
payloads. Each instance holds its matrices as one read-only (k, d, d) float
array, a copy validated once when the instance is made (``RpcaInstance.data``,
``KarcherInstance.anchors``); the oracles read that array as is, and a
robust PCA minibatch indexes it. The robust PCA oracle evaluates its k
distance terms (k = n, or the batch size) through one whitening: the
square-root factor M = G G^T that the point M carries, one (k, d, d)
congruence G^-1 M_i G^-T, one batched eigendecomposition with the SPD
threshold checked on every slice, then the weighted inner logs are summed
and sandwiched by G once, since log_M(M_i) = G log(G^-1 M_i G^-T) G^T is
linear in the inner log. The robust mean oracle reads the factors that X
and the Y block carry and makes one whitening of 2N slices:
G_X^-1 Y_i G_X^-T, then G_i^-1 A_i G_i^-T for Y_i = G_i G_i^T. The first
N give both log_X(Y_i) and log_{Y_i}(X), so each log_X(Y_i) and
log_{Y_i}(A_i) keeps the bits of a per-side log. Its max side SPD^N keeps the Y block as one (N, d, d)
array, so the oracle reads and returns that payload as is.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .manifolds import (
    Euclidean,
    Manifold,
    Point,
    Product,
    Spd,
    Sphere,
    Tangent,
    _congruence,
    _eigh_checked,
    _factor_of,
    _payload_to_list,
    _random_spd,
    _root_factor,
    _spd_stack,
    _spectral,
    _split_factor,
    _stacked_factor,
    _sym,
    _whiten,
)

__all__ = [
    "SaddleProblem",
    "gen_spd_data",
    "RpcaInstance",
    "rpca_value",
    "rpca_grad",
    "make_rpca",
    "MinibatchOracle",
    "KarcherInstance",
    "karcher_value",
    "karcher_grad",
    "make_karcher",
    "BilinearInstance",
    "make_bilinear",
    "estimate_smoothness",
    "estimate_strong_monotonicity",
    "PROBLEM_KINDS",
    "instance_to_json",
    "instance_from_json",
]

# Distance below which the nonsmooth |d| penalty term takes the zero subgradient.
_SUBGRAD_TOL = 1e-9

GradPair = tuple[Tangent, Tangent]
GradFn = Callable[[Point, Point], GradPair]
StochasticGradFn = Callable[[Point, Point, np.random.Generator], GradPair]


@dataclass(frozen=True)
class SaddleProblem:
    """A min-max objective over a product of two manifolds, given by its gradients.

    The objective is minimized over the first slot and maximized over the
    second; ``grad`` returns the pair of Riemannian gradients (ascent
    direction in both slots -- the solvers flip the sign on the min side).
    ``stochastic_grad(x, y, rng)``, when present, is an unbiased noisy
    oracle.

    The run driver, which is also the reference solve, reads its metrics
    through :meth:`grad_norms`, :meth:`distances` and :meth:`distance_gap`.

    ``joint`` is derived from the two sides: the manifold the solver steps
    move the pair on as one point (:meth:`join`, :meth:`split`). When the
    min side is one ``Spd`` and the max side that same descriptor or a
    power of it (SPD^N), it is SPD^(N+1) (N = 1 for one matrix): x is slice
    0 of its payload and y_k slice k+1, so each kernel call at a pair is one
    stacked call and a kernel failure names the joint slice. Otherwise it is
    the product of the two sides, whose payload is the tuple (x, y). Either
    way each side keeps the bits of a per-side call. The joint point carries
    the two sides' factors; on the stack, when a side has none, :meth:`join`
    decomposes the joint payload once, so a side that is not PD fails there
    and names its joint slice. Each side of a split carries its part of the
    joint factor. Only ``_join``, :meth:`join` and :meth:`split` know this
    layout; the metrics read each side on its own manifold.
    """

    m_min: Manifold
    m_max: Manifold
    grad: GradFn
    stochastic_grad: Optional[StochasticGradFn] = None
    joint: Product = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m_min, m_max = self.m_min, self.m_max
        if isinstance(m_min, Spd) and isinstance(m_max, Product) and m_max._power == m_min:
            joint = Product((m_min,) * (1 + len(m_max.factors)))
        else:
            joint = Product((m_min, m_max))  # SPD^2 when both sides are the same Spd
        object.__setattr__(self, "joint", joint)

    def _join(self, a, b):
        """One ``joint`` payload from the two sides' payloads (a copy on the SPD^(N+1) stack)."""
        return (a, b) if self.joint._power is None else _spd_stack(a, b)

    def join(self, x: Point, y: Point) -> Point:
        """The pair (x, y) as one point of ``joint``."""
        if self.joint._power is None:
            return Point(self.joint, (x.value, y.value), (x.factor, y.factor))
        z = _spd_stack(x.value, y.value)
        z.flags.writeable = False
        f = _root_factor(z) if x.factor is None or y.factor is None else _stacked_factor(x.factor, y.factor)
        return Point(self.joint, z, f)

    def split(self, z: Point) -> tuple[Point, Point]:
        """The two sides of a ``joint`` point; on the SPD^(N+1) stack, views of slice 0 and of the rest."""
        if self.joint._power is None:
            (a, b), (fa, fb) = z.value, z.factor
        else:
            a, b = z.value[0], z.value[1:].reshape(self.m_max._shape)
            fa, fb = _split_factor(z.factor, self.m_max._shape)
        return Point(self.m_min, a, fa), Point(self.m_max, b, fb)

    def distances(self, x: Point, y: Point, x_to: Point, y_to: Point) -> tuple[float, float]:
        """Geodesic distances from x to ``x_to`` and from y to ``y_to``, each from its side's ``distance``."""
        return self.m_min.distance(x, x_to), self.m_max.distance(y, y_to)

    def grad_norms(self, x: Point, y: Point) -> tuple[float, float, float]:
        """Riemannian gradient norms at (x, y): combined, min side, max side."""
        gx, gy = self.grad(x, y)
        nx = self.m_min.norm(gx)
        ny = self.m_max.norm(gy)
        return math.hypot(nx, ny), nx, ny

    def distance_gap(self, x: Point, y: Point, reference: tuple[Point, Point]) -> float:
        """Squared-distance sum from (x, y) to the reference saddle."""
        dx, dy = self.distances(x, y, *reference)
        return dx**2 + dy**2


def gen_spd_data(
    d: int, n: int, eig_lo: float = 0.2, eig_hi: float = 4.5, seed: int = 0
) -> list[np.ndarray]:
    """Seeded SPD matrices Q diag(lam) Q^T with lam uniform in [eig_lo, eig_hi]."""
    if not (0.0 < eig_lo <= eig_hi):
        raise ValueError("need 0 < eig_lo <= eig_hi")
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    rng = np.random.default_rng(seed)
    return [_random_spd(d, rng, eig_lo, eig_hi) for _ in range(n)]


def _frozen_spd_stack(d: int, matrices) -> np.ndarray:
    """A validated read-only copy of ``matrices`` as a float (k, d, d) SPD stack."""
    return Product((Spd(d),) * len(matrices)).point(matrices).value


@dataclass(frozen=True)
class RpcaInstance:
    """Dataset and penalty weight for the robust PCA saddle problem."""

    d: int
    n: int
    alpha: float
    data: np.ndarray  # the validated (n, d, d) SPD stack

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if len(self.data) != self.n:
            raise ValueError(f"expected {self.n} data matrices, got {len(self.data)}")
        object.__setattr__(self, "data", _frozen_spd_stack(self.d, self.data))

    @classmethod
    def generate(cls, d: int, n: int, alpha: float, seed: int = 0) -> "RpcaInstance":
        return cls(d=d, n=n, alpha=alpha, data=gen_spd_data(d, n, seed=seed))


def rpca_value(inst: RpcaInstance, x_point: Point, m_point: Point) -> float:
    """Objective -x^T M x - (alpha/n) sum_i d(M, M_i)."""
    spd = m_point.manifold
    if not isinstance(spd, Spd) or spd.n != inst.d:
        raise ValueError("M must live on the SPD manifold of the instance dimension")
    if x_point.value.shape != (inst.d,):
        raise ValueError("x must be a unit vector of the instance dimension")
    m, x = m_point.value, x_point.value
    dists = spd._distance(m, inst.data, m_point.factor)
    return float(-x @ m @ x - (inst.alpha / inst.n) * dists.sum())


def rpca_grad(
    inst: RpcaInstance, x_point: Point, m_point: Point, batch: Optional[np.ndarray] = None
) -> tuple[Tangent, Tangent]:
    """Riemannian gradients (at x, at M) of the robust PCA objective.

    ``batch`` restricts the distance terms to the given indices with the
    unbiased n/batch_size scaling. Terms with d(M, M_i) below tolerance
    contribute the zero subgradient.
    """
    sphere = x_point.manifold
    m, x = m_point.value, x_point.value

    # Sphere side: ambient gradient of -x^T M x projected onto the tangent space.
    ambient = -2.0 * (m @ x)
    gx = sphere.project_tangent(x, ambient)

    # SPD side: affine-invariant gradient of the quadratic term ...
    with np.errstate(over="ignore"):  # a diverged M overflows here; its non-finite gradient fails downstream
        gm = -_sym(m @ np.outer(x, x) @ m)
    # ... plus the distance attraction toward each (sampled) data matrix,
    # sum_i (weight/d_i) log_M(M_i) = G [sum_i (weight/d_i) q_i diag(lw_i) q_i^T] G^T with M = G G^T.
    targets = inst.data if batch is None else inst.data[batch]
    weight = inst.alpha / len(targets)
    f = _factor_of(m, m_point.factor)
    w, q = _whiten(f, targets, "SPD log")
    lw = np.log(w)
    dists = np.linalg.norm(lw, axis=1)
    coef = np.zeros_like(dists)
    far = dists > _SUBGRAD_TOL
    coef[far] = weight / dists[far]
    # Columns of qcat are the eigenvectors of every slice, so one product sums all k terms.
    qcat = q.transpose(1, 0, 2).reshape(len(m), -1)
    inner = (qcat * (coef[:, None] * lw).ravel()) @ qcat.T
    gm = gm + _sym(_congruence(f.g, _sym(inner)))
    return Tangent(x_point, gx), Tangent(m_point, gm)


def make_rpca(inst: RpcaInstance, batch_size: Optional[int] = None) -> SaddleProblem:
    """Saddle problem with x on the sphere (min side) and M on SPD (max side)."""
    return SaddleProblem(
        m_min=Sphere(inst.d),
        m_max=Spd(inst.d),
        grad=functools.partial(rpca_grad, inst),
        stochastic_grad=MinibatchOracle(inst, batch_size) if batch_size is not None else None,
    )


class MinibatchOracle:
    """Unbiased minibatch gradient for robust PCA.

    Samples distance terms uniformly without replacement within an epoch
    (a shuffled pass over all n indices) and rescales them by n/batch_size.
    Each call advances the data-pass counter by ``passes_per_call``. The
    epoch belongs to the caller's generator: a call with another generator
    than the last (``is``) starts a fresh one, and every shuffle is drawn
    from it, so a run's batches depend on its seed alone.
    """

    def __init__(self, inst: RpcaInstance, batch_size: int):
        if not (1 <= batch_size <= inst.n):
            raise ValueError(f"batch_size must be in [1, {inst.n}], got {batch_size}")
        self.inst = inst
        self.batch_size = int(batch_size)
        self._rng: Optional[np.random.Generator] = None
        self._order: list[int] = []

    @property
    def passes_per_call(self) -> float:
        return self.batch_size / self.inst.n

    def _next_batch(self, rng: np.random.Generator) -> np.ndarray:
        if rng is not self._rng:
            self._rng, self._order = rng, []
        while len(self._order) < self.batch_size:
            self._order.extend(rng.permutation(self.inst.n).tolist())
        batch = self._order[: self.batch_size]
        del self._order[: self.batch_size]
        return np.asarray(batch, dtype=int)

    def __call__(self, x: Point, m: Point, rng: np.random.Generator) -> tuple[Tangent, Tangent]:
        return rpca_grad(self.inst, x, m, batch=self._next_batch(rng))


@dataclass(frozen=True)
class KarcherInstance:
    """Anchors and trade-off weight for the robust matrix-mean saddle problem."""

    d: int
    n_anchors: int
    gamma: float
    anchors: np.ndarray  # the validated (n_anchors, d, d) SPD stack

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if len(self.anchors) != self.n_anchors:
            raise ValueError(f"expected {self.n_anchors} anchors, got {len(self.anchors)}")
        object.__setattr__(self, "anchors", _frozen_spd_stack(self.d, self.anchors))

    @classmethod
    def generate(cls, d: int, n_anchors: int, gamma: float, seed: int = 0) -> "KarcherInstance":
        data = gen_spd_data(d, n_anchors, eig_lo=0.5, eig_hi=2.0, seed=seed)
        return cls(d=d, n_anchors=n_anchors, gamma=gamma, anchors=data)


def karcher_value(inst: KarcherInstance, x_point: Point, ys_point: Point) -> float:
    """Objective sum_i d(X, Y_i)^2 - gamma * sum_i d(Y_i, A_i)^2."""
    spd: Spd = x_point.manifold  # type: ignore[assignment]
    ys = ys_point.value
    to_x = spd._distance(x_point.value, ys, x_point.factor)
    to_anchor = spd._distance(ys, inst.anchors, ys_point.factor)
    return float((to_x**2).sum() - inst.gamma * (to_anchor**2).sum())


def _repeat_then(a: np.ndarray, k: int, rest: np.ndarray) -> np.ndarray:
    """``k`` copies of the matrix ``a`` followed by the stack ``rest``, as one new stack."""
    out = np.empty((k + len(rest), *a.shape))
    out[:k] = a
    out[k:] = rest
    return out


def karcher_grad(inst: KarcherInstance, x_point: Point, ys_point: Point) -> tuple[Tangent, Tangent]:
    """Riemannian gradients (at X, at the anchor block) of the robust mean objective.

    grad_X = -2 sum_i log_X(Y_i); per block grad_{Y_i} = -2 log_{Y_i}(X)
    + 2 gamma log_{Y_i}(A_i), oriented for ascent over the Y block. It
    reads the factors G that X and the Y block carry, and the 3N logs share
    one whitening of 2N slices. Its slice j is G_X^-1 Y_j G_X^-T for j < N
    and G_i^-1 A_i G_i^-T of Y_i = G_i G_i^T for j = N + i; a failure names
    j. With G_X^-1 Y_i G_X^-T = Q diag(w) Q^T, log_X(Y_i) is
    G_X Q diag(log w) Q^T G_X^T and log_{Y_i}(X) is
    -G_X Q diag(w log w) Q^T G_X^T, so X and Y_i share one decomposition.
    """
    x, ys = x_point.value, ys_point.value
    n = len(ys)
    fx, fys = _factor_of(x, x_point.factor), _factor_of(ys, ys_point.factor)
    whitened = _congruence(_repeat_then(fx.g_inv, n, fys.g_inv), np.concatenate((ys, inst.anchors)))
    w, q = _eigh_checked(whitened, "SPD log")
    lw = np.log(w)
    # log_X(Y_i); log_{Y_i}(X) = -G_X Q_i diag(w_i log w_i) Q_i^T G_X^T from the same eigenpairs; log_{Y_i}(A_i).
    spectra = np.concatenate((lw[:n], -w[:n] * lw[:n], lw[n:]))
    logs = _spectral(_repeat_then(fx.g, 2 * n, fys.g) @ np.concatenate((q[:n], q)), spectra)
    gx = (-2.0 * logs[:n]).sum(axis=0)
    gys = -2.0 * logs[n : 2 * n] + 2.0 * inst.gamma * logs[2 * n :]
    return Tangent(x_point, gx), Tangent(ys_point, gys)


def make_karcher(inst: KarcherInstance) -> SaddleProblem:
    """Saddle problem with X on SPD (min side) and the Y block on SPD^N (max side).

    The max side is a ``Product`` of N equal ``Spd`` factors, so its payloads are (N, d, d) arrays.
    """
    spd = Spd(inst.d, kappa_min=-0.5, kappa_max=0.0)
    return SaddleProblem(
        m_min=spd,
        m_max=Product((spd,) * inst.n_anchors),
        grad=functools.partial(karcher_grad, inst),
    )


@dataclass(frozen=True)
class BilinearInstance:
    """Flat coupling x^T B y; the exactness oracle for solver reductions."""

    k: int
    coupling: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("dimension must be >= 1")
        b = np.eye(self.k) if self.coupling is None else np.asarray(self.coupling, dtype=float)
        if b.shape != (self.k, self.k) or not np.all(np.isfinite(b)):
            raise ValueError("coupling must be a finite k x k matrix")
        object.__setattr__(self, "coupling", b)


def make_bilinear(inst: BilinearInstance) -> SaddleProblem:
    m = Euclidean(inst.k)
    b = inst.coupling

    def grad(x: Point, y: Point) -> tuple[Tangent, Tangent]:
        return Tangent(x, b @ y.value), Tangent(y, b.T @ x.value)

    return SaddleProblem(m_min=m, m_max=m, grad=grad)


# -- empirical constants -------------------------------------------------------


def _sampled_pairs(problem: SaddleProblem, samples: int, rng: np.random.Generator):
    """``samples`` pairs among random points, each point's exact gradient computed once.

    Draws points (x_k, y_k) one at a time, each side from its manifold's
    ``random_point``, and calls ``problem.grad`` once per point. Each new
    point j is paired with every earlier point i < j, in draw order, and a
    pair is yielded as ``(x_j, y_j, gx_j, gy_j), (x_i, y_i, gx_i, gy_i),
    d(x_j, x_i), d(y_j, y_i)``; the generator stops after ``samples``
    pairs. So P pairs cost K gradients, the smallest K with
    K(K - 1)/2 >= P (12 for 64 pairs, 17 for 128), plus one distance per
    side for each pair, and the first P pairs of a larger ``samples`` at
    the same generator state are the P pairs of ``samples = P``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    mx, my = problem.m_min, problem.m_max
    points: list[tuple] = []
    left = samples
    while True:
        x, y = mx.random_point(rng), my.random_point(rng)
        new = (x, y, *problem.grad(x, y))
        for old in points:
            yield new, old, mx.distance(x, old[0]), my.distance(y, old[1])
            left -= 1
            if left == 0:
                return
        points.append(new)


def estimate_smoothness(problem: SaddleProblem, samples: int, rng: np.random.Generator) -> float:
    """Empirical gradient-Lipschitz modulus: max transported-difference ratio.

    Over ``samples`` pairs of random points (see :func:`_sampled_pairs`:
    the pairs share their points, so 64 pairs cost 12 gradients), returns
    the largest ratio between the transported gradient difference and the
    sum of the two displacement distances, over both gradient blocks.
    Nondecreasing in ``samples`` for a fixed seed, since a larger count
    only adds pairs; a lower bound on the true modulus.
    """
    best = 0.0
    for (x1, y1, gx1, gy1), (x2, y2, gx2, gy2), dx, dy in _sampled_pairs(problem, samples, rng):
        dist = dx + dy
        if dist < 1e-12:
            continue
        dx = gx1 - problem.m_min.transport(x2, x1, gx2)
        dy = gy1 - problem.m_max.transport(y2, y1, gy2)
        best = max(best, problem.m_min.norm(dx) / dist, problem.m_max.norm(dy) / dist)
    return best


def estimate_strong_monotonicity(problem: SaddleProblem, samples: int, rng: np.random.Generator) -> float:
    """Empirical modulus of the saddle field (grad_x, -grad_y).

    Over ``samples`` pairs of random points (see :func:`_sampled_pairs`:
    128 pairs cost 17 gradients, and each pair two logs per side), returns
    the smallest sampled value of the two-point monotonicity quotient;
    positive values certify strong convexity-concavity on the sampled
    region, nonpositive values flag that the instance is not strongly
    monotone there.
    """
    worst = math.inf
    for (x1, y1, gx1, gy1), (x2, y2, gx2, gy2), dx, dy in _sampled_pairs(problem, samples, rng):
        d2 = dx**2 + dy**2
        if d2 < 1e-12:
            continue
        val = (
            -problem.m_min.inner(gx1, problem.m_min.log(x1, x2))
            - problem.m_min.inner(gx2, problem.m_min.log(x2, x1))
            + problem.m_max.inner(gy1, problem.m_max.log(y1, y2))
            + problem.m_max.inner(gy2, problem.m_max.log(y2, y1))
        )
        worst = min(worst, val / d2)
    if not math.isfinite(worst):
        raise ValueError("no usable sample pairs were drawn")
    return worst


# -- serialization -------------------------------------------------------------


# Problem names with the instance type each one runs on.
PROBLEM_KINDS = {"rpca": RpcaInstance, "karcher": KarcherInstance, "bilinear": BilinearInstance}


def instance_to_json(inst) -> dict:
    """Serialize an instance (matrices row-major) for bit-exact reloading.

    The keys are the problem name and the instance's dataclass fields.
    """
    names = [name for name, cls in PROBLEM_KINDS.items() if isinstance(inst, cls)]
    if not names:
        raise TypeError(f"unknown instance type {type(inst)!r}")
    return {"problem": names[0], **{f.name: _payload_to_list(getattr(inst, f.name)) for f in fields(inst)}}


def instance_from_json(data: dict):
    """Inverse of :func:`instance_to_json`; each instance coerces its own payloads."""
    cls = PROBLEM_KINDS.get(data.get("problem"))
    if cls is None:
        raise ValueError(f"unknown problem kind {data.get('problem')!r}")
    return cls(**{f.name: data[f.name] for f in fields(cls)})
