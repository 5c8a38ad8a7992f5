"""Concrete saddle problems with exact and minibatch gradient oracles.

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

Riemannian gradients are hand-derived and are only ever trusted through the
finite-difference directional-derivative check in the test suite. The SPD
gradients use the affine-invariant conversion grad = M sym(euclidean) M and
the geodesic-distance gradients -2 log_X(Y) (squared) and -log_X(Y)/d
(plain).

Both SPD oracles run on the stacked SPD kernels, which take (..., d, d)
payloads. The robust PCA oracle evaluates its k distance terms (k = n, or
the batch size) through one whitening: one root factorization of M, one
(k, d, d) congruence M^-1/2 M_i M^-1/2, one batched eigendecomposition
with the SPD threshold checked on every slice, then the weighted inner logs
are summed and sandwiched by M^1/2 once, since log_M(M_i) = M^1/2
log(M^-1/2 M_i M^-1/2) M^1/2 is linear in the inner log. The robust mean
oracle makes two stacked log calls: log_X over the Y stack, and one log at
the Y stack toward X and toward the anchors. Its max side SPD^N keeps the Y
block as one (N, d, d) array, so the oracle reads and returns that payload
as is, and the solver's exp, log, transport, inner and distance on that
side are each one stacked kernel call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .manifolds import (
    Euclidean,
    Point,
    Product,
    Spd,
    Sphere,
    Tangent,
    _payload_to_list,
    _spectral,
    _sym,
    random_orthogonal,
)
from .solvers import SaddleProblem

__all__ = [
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


def gen_spd_data(
    d: int, n: int, eig_lo: float = 0.2, eig_hi: float = 4.5, seed: int = 0
) -> list[np.ndarray]:
    """Seeded SPD matrices Q diag(lam) Q^T with lam uniform in [eig_lo, eig_hi]."""
    if not (0.0 < eig_lo <= eig_hi):
        raise ValueError("need 0 < eig_lo <= eig_hi")
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        q = random_orthogonal(d, rng)
        lam = rng.uniform(eig_lo, eig_hi, size=d)
        out.append(_spectral(q, lam))
    return out


@dataclass(frozen=True)
class RpcaInstance:
    """Dataset and penalty weight for the robust PCA saddle problem."""

    d: int
    n: int
    alpha: float
    data: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if len(self.data) != self.n:
            raise ValueError(f"expected {self.n} data matrices, got {len(self.data)}")
        object.__setattr__(self, "data", tuple(np.asarray(m, dtype=float) for m in self.data))
        Product((Spd(self.d),) * self.n).point(self.data)

    @classmethod
    def generate(cls, d: int, n: int, alpha: float, seed: int = 0) -> "RpcaInstance":
        return cls(d=d, n=n, alpha=alpha, data=tuple(gen_spd_data(d, n, seed=seed)))


def rpca_value(inst: RpcaInstance, m_point: Point, x_point: Point) -> float:
    """Objective -x^T M x - (alpha/n) sum_i d(M, M_i)."""
    spd = m_point.manifold
    if not isinstance(spd, Spd) or spd.n != inst.d:
        raise ValueError("M must live on the SPD manifold of the instance dimension")
    if x_point.value.shape != (inst.d,):
        raise ValueError("x must be a unit vector of the instance dimension")
    m, x = m_point.value, x_point.value
    _, _, w, _ = spd._whiten(m, inst.data, "SPD log")
    return float(-x @ m @ x - (inst.alpha / inst.n) * np.linalg.norm(np.log(w), axis=1).sum())


def rpca_grad(
    inst: RpcaInstance, m_point: Point, x_point: Point, batch: Optional[np.ndarray] = None
) -> tuple[Tangent, Tangent]:
    """Riemannian gradients (at M, at x) of the robust PCA objective.

    ``batch`` restricts the distance terms to the given indices with the
    unbiased n/batch_size scaling. Terms with d(M, M_i) below tolerance
    contribute the zero subgradient.
    """
    spd: Spd = m_point.manifold  # type: ignore[assignment]
    sphere = x_point.manifold
    m, x = m_point.value, x_point.value

    # Sphere side: ambient gradient of -x^T M x projected onto the tangent space.
    ambient = -2.0 * (m @ x)
    gx = sphere.project_tangent(x, ambient)

    # SPD side: affine-invariant gradient of the quadratic term ...
    with np.errstate(over="ignore"):  # a diverged M overflows here; its non-finite gradient fails downstream
        gm = -_sym(m @ np.outer(x, x) @ m)
    # ... plus the distance attraction toward each (sampled) data matrix,
    # sum_i (weight/d_i) log_M(M_i) = half [sum_i (weight/d_i) q_i diag(lw_i) q_i^T] half.
    targets = inst.data if batch is None else [inst.data[int(i)] for i in batch]
    weight = inst.alpha / len(targets)
    # The matrices go in unstacked: the (k, d, d) copy then dies inside the first product instead of
    # living through the eigh, which measured twice the page faults per call at d=25, n=40.
    half, _, w, q = spd._whiten(m, targets, "SPD log")
    lw = np.log(w)
    dists = np.linalg.norm(lw, axis=1)
    coef = np.zeros_like(dists)
    far = dists > _SUBGRAD_TOL
    coef[far] = weight / dists[far]
    # Columns of qcat are the eigenvectors of every slice, so one product sums all k terms.
    qcat = q.transpose(1, 0, 2).reshape(len(m), -1)
    inner = (qcat * (coef[:, None] * lw).ravel()) @ qcat.T
    gm = gm + _sym(half @ _sym(inner) @ half)
    return Tangent(m_point, gm), Tangent(x_point, gx)


def make_rpca(inst: RpcaInstance, batch_size: Optional[int] = None) -> SaddleProblem:
    """Saddle problem with x on the sphere (min side) and M on SPD (max side)."""
    sphere = Sphere(inst.d)
    spd = Spd(inst.d)
    oracle = MinibatchOracle(inst, batch_size) if batch_size is not None else None

    def value(x: Point, m: Point) -> float:
        return rpca_value(inst, m, x)

    def grad(x: Point, m: Point) -> tuple[Tangent, Tangent]:
        gm, gx = rpca_grad(inst, m, x)
        return gx, gm

    return SaddleProblem(m_min=sphere, m_max=spd, value=value, grad=grad, stochastic_grad=oracle)


class MinibatchOracle:
    """Unbiased minibatch gradient for robust PCA.

    Samples distance terms uniformly without replacement within an epoch
    (a shuffled pass over all n indices) and rescales them by n/batch_size.
    Each call advances the data-pass counter by ``passes_per_call``. A
    fresh shuffle is drawn from the caller's generator whenever the current
    epoch is exhausted, so trajectories are reproducible from the run seed.
    """

    def __init__(self, inst: RpcaInstance, batch_size: int):
        if not (1 <= batch_size <= inst.n):
            raise ValueError(f"batch_size must be in [1, {inst.n}], got {batch_size}")
        self.inst = inst
        self.batch_size = int(batch_size)
        self._order: list[int] = []

    @property
    def passes_per_call(self) -> float:
        return self.batch_size / self.inst.n

    def _next_batch(self, rng: np.random.Generator) -> np.ndarray:
        while len(self._order) < self.batch_size:
            self._order.extend(rng.permutation(self.inst.n).tolist())
        batch = self._order[: self.batch_size]
        del self._order[: self.batch_size]
        return np.asarray(batch, dtype=int)

    def __call__(self, x: Point, m: Point, rng: np.random.Generator) -> tuple[Tangent, Tangent]:
        batch = self._next_batch(rng)
        gm, gx = rpca_grad(self.inst, m, x, batch=batch)
        return gx, gm


@dataclass(frozen=True)
class KarcherInstance:
    """Anchors and trade-off weight for the robust matrix-mean saddle problem."""

    d: int
    n_anchors: int
    gamma: float
    anchors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if len(self.anchors) != self.n_anchors:
            raise ValueError(f"expected {self.n_anchors} anchors, got {len(self.anchors)}")
        # The oracles read the validated (N, d, d) stack and the anchors are views into it, so the two
        # never disagree. A private attribute, not a field, so the JSON form keeps its bytes.
        stack = Product((Spd(self.d),) * self.n_anchors).point(self.anchors).value
        object.__setattr__(self, "anchors", tuple(stack))
        object.__setattr__(self, "_anchor_stack", stack)

    @classmethod
    def generate(cls, d: int, n_anchors: int, gamma: float, seed: int = 0) -> "KarcherInstance":
        data = gen_spd_data(d, n_anchors, eig_lo=0.5, eig_hi=2.0, seed=seed)
        return cls(d=d, n_anchors=n_anchors, gamma=gamma, anchors=tuple(data))


def karcher_value(inst: KarcherInstance, x_point: Point, ys_point: Point) -> float:
    """Objective sum_i d(X, Y_i)^2 - gamma * sum_i d(Y_i, A_i)^2."""
    spd: Spd = x_point.manifold  # type: ignore[assignment]
    ys = ys_point.value
    to_x = spd._distance(x_point.value, ys)
    to_anchor = spd._distance(ys, inst._anchor_stack)
    return float((to_x**2).sum() - inst.gamma * (to_anchor**2).sum())


def karcher_grad(inst: KarcherInstance, x_point: Point, ys_point: Point) -> tuple[Tangent, Tangent]:
    """Riemannian gradients (at X, at the anchor block) of the robust mean objective.

    grad_X = -2 sum_i log_X(Y_i); per block grad_{Y_i} = -2 log_{Y_i}(X)
    + 2 gamma log_{Y_i}(A_i), oriented for ascent over the Y block.
    """
    spd: Spd = x_point.manifold  # type: ignore[assignment]
    x, ys = x_point.value, ys_point.value
    gx = (-2.0 * spd._log(x, ys)).sum(axis=0)
    # One log at the Y stack, toward X (slot 0) and toward the anchors (slot 1).
    logs = spd._log(ys, np.stack((np.broadcast_to(x, ys.shape), inst._anchor_stack)))
    gys = -2.0 * logs[0] + 2.0 * inst.gamma * logs[1]
    return Tangent(x_point, gx), Tangent(ys_point, gys)


def make_karcher(inst: KarcherInstance) -> SaddleProblem:
    """Saddle problem with X on SPD (min side) and the Y block on SPD^N (max side).

    The max side is a ``Product`` of N equal ``Spd`` factors, so its payloads are (N, d, d) arrays.
    """
    spd = Spd(inst.d, kappa_min=-0.5, kappa_max=0.0)
    prod = Product(tuple(spd for _ in range(inst.n_anchors)))

    def value(x: Point, ys: Point) -> float:
        return karcher_value(inst, x, ys)

    def grad(x: Point, ys: Point) -> tuple[Tangent, Tangent]:
        return karcher_grad(inst, x, ys)

    return SaddleProblem(m_min=spd, m_max=prod, value=value, grad=grad)


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

    def value(x: Point, y: Point) -> float:
        return float(x.value @ b @ y.value)

    def grad(x: Point, y: Point) -> tuple[Tangent, Tangent]:
        return Tangent(x, b @ y.value), Tangent(y, b.T @ x.value)

    return SaddleProblem(m_min=m, m_max=m, value=value, grad=grad)


# -- empirical constants -------------------------------------------------------


def _sample_pair(problem: SaddleProblem, rng: np.random.Generator) -> tuple[Point, Point]:
    return problem.m_min.random_point(rng), problem.m_max.random_point(rng)


def estimate_smoothness(problem: SaddleProblem, samples: int, rng) -> float:
    """Empirical gradient-Lipschitz modulus: max transported-difference ratio.

    Draws pairs of random points and returns the largest ratio between the
    transported gradient difference and the sum of the two displacement
    distances, over both gradient blocks. Nondecreasing in ``samples`` for
    a fixed seed; a lower bound on the true modulus.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    best = 0.0
    for _ in range(samples):
        x1, y1 = _sample_pair(problem, rng)
        x2, y2 = _sample_pair(problem, rng)
        dist = problem.m_min.distance(x1, x2) + problem.m_max.distance(y1, y2)
        if dist < 1e-12:
            continue
        gx1, gy1 = problem.grad(x1, y1)
        gx2, gy2 = problem.grad(x2, y2)
        dx = gx1 - problem.m_min.transport(x2, x1, gx2)
        dy = gy1 - problem.m_max.transport(y2, y1, gy2)
        best = max(best, problem.m_min.norm(dx) / dist, problem.m_max.norm(dy) / dist)
    return best


def estimate_strong_monotonicity(problem: SaddleProblem, samples: int, rng) -> float:
    """Empirical modulus of the saddle field (grad_x, -grad_y).

    Returns the smallest sampled value of the two-point monotonicity
    quotient; positive values certify strong convexity-concavity on the
    sampled region, nonpositive values flag that the instance is not
    strongly monotone there.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    worst = math.inf
    for _ in range(samples):
        x1, y1 = _sample_pair(problem, rng)
        x2, y2 = _sample_pair(problem, rng)
        d2 = problem.m_min.distance(x1, x2) ** 2 + problem.m_max.distance(y1, y2) ** 2
        if d2 < 1e-12:
            continue
        gx1, gy1 = problem.grad(x1, y1)
        gx2, gy2 = problem.grad(x2, y2)
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
