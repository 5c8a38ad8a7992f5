"""Saddle-point solvers: corrected extragradient and gradient descent-ascent.

Two steps over a pair of manifolds (descend the first slot, ascend the
second), each taking one gradient oracle ``oracle(x, y, stream)``:

- ``rceg_step``: corrected extragradient. Half-step to (x^, y^) along the
  oracle's gradient, then a full step from the half-point with the
  correction term log_{x^}(x_t) added so the update stays a single
  exponential map.
- ``rgda_step``: simultaneous exponential-map gradient descent-ascent.

Both steps move the pair as one point of the problem's joint manifold
(:class:`~geosaddle.problems.SaddleProblem` describes its layout): they
join the two sides, make one exp (and for rceg one log) call per move, and
split the result back into per-side points, each with the bits of a
per-side call.

The four solvers are these two steps with two oracles. ``rceg`` and
``rgda`` use the exact ``problem.grad`` (``oracle=None``); ``srceg`` and
``srgda`` use the stochastic oracle :func:`stochastic_oracle` builds once
per run: the exact gradient plus :class:`NoiseModel` noise of the run's
``sigma``, or the problem's ``stochastic_grad`` (e.g. a minibatch sampler)
drawing from the run's generator, which the oracle holds; both derive from
the run seed. ``stream`` is 0 for the query at the iterate and 1 for the
one at the half-iterate. :class:`SolverState` holds only iterates.

Each extragradient step consumes exactly two oracle evaluations, each
descent-ascent step exactly one, and the ``data_passes`` trace column
counts them so. The run driver evaluates the exact gradient at every
iterate it records for its ``grad_norm`` column anyway, through a one-entry
memo on ``problem.grad``, so the next step's first exact query there (the
noise oracle still adds fresh noise) costs no full gradient. The same
driver, given a stop tolerance, is the reference solve.

Step-size schedules from the convergence analysis are provided as plain
functions (one per regime), alongside the practical min{1/(2l), a/t} decay
used in benchmarks. The curvature constants they take come from the
comparison coefficients of this module: on a manifold with sectional
curvature in [kappa_min, kappa_max], the law of cosines for a geodesic
triangle with sides a, b, c and angle A between b and c bends into

    xi_lower(kappa_max, s) * b^2 + c^2 - 2 b c cos A
        <= a^2 <=
    xi_upper(kappa_min, s) * b^2 + c^2 - 2 b c cos A

for a length s that bounds the triangle (the analysis takes s = D, the
diameter bound), with xi_lower(k, c) = c sqrt(k) cot(c sqrt(k)) in (0, 1]
for k > 0 (and 1 otherwise) and xi_upper(k, c) = c sqrt(-k) coth(c sqrt(-k))
>= 1 for k < 0 (and 1 otherwise). Their ratio tau = xi_upper / xi_lower >= 1
measures the distance distortion a solver pays for non-flatness;
:func:`constants_at` evaluates all three at one length.

The run driver takes any ``(t) -> eta`` callable; ``harness.build_schedule``
builds them from a run config.

``SOLVER_KINDS`` is the one list of solver names, each with the two facts
callers branch on: extragradient (two oracle calls per step, averages the
half-iterates) or descent-ascent, and exact or stochastic oracle.

Averaging: the running (Karcher) mean of iterates is maintained through the
recursion mean <- exp_mean(log_mean(z) / (t+1)), which the driver runs once
on the joint point. Extragradient solvers average their half-iterates,
descent-ascent solvers the pre-step iterates. The recursion starts from the
first averaged input, which on flat space reproduces the arithmetic mean
exactly.

The noise model injects isotropic Gaussian tangent noise with per-block
second moment sigma^2/2, so E[|xi_x|^2 + |xi_y|^2] = sigma^2 holds with
equality; the two oracle queries inside one extragradient step draw from
separate RNG sub-streams so they are independent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .manifolds import GeometryError, Manifold, Point, Tangent, _require_same_base
from .problems import GradFn, GradPair, SaddleProblem

__all__ = [
    "SolverState",
    "NoiseModel",
    "initial_state",
    "stochastic_oracle",
    "rceg_step",
    "rgda_step",
    "running_mean_update",
    "xi_lower",
    "xi_upper",
    "CurvatureConstants",
    "constants_at",
    "schedule_rceg_scsc",
    "schedule_srceg_scsc",
    "schedule_srceg_cc",
    "schedule_rgda_scsc",
    "schedule_rgda_cc",
    "schedule_srgda_cc",
    "schedule_practical",
    "Trace",
    "TraceRow",
    "run",
    "SolverKind",
    "SOLVER_KINDS",
]


class SolverKind(NamedTuple):
    extragradient: bool
    stochastic: bool


SOLVER_KINDS = {
    "rceg": SolverKind(extragradient=True, stochastic=False),
    "srceg": SolverKind(extragradient=True, stochastic=True),
    "rgda": SolverKind(extragradient=False, stochastic=False),
    "srgda": SolverKind(extragradient=False, stochastic=True),
}

# oracle(x, y, stream)
Oracle = Callable[[Point, Point, int], GradPair]

# Gradient norm beyond which a run counts as diverged.
_DIVERGENCE_CAP = 1e6
# Iterations between the recorded rows of a run with a stop tolerance.
_CHECK_EVERY = 25


@dataclass(frozen=True)
class SolverState:
    """Iterates of one run: current pair, half-iterates, running means.

    ``x_half``/``y_half`` are populated by the extragradient solvers only;
    ``x_bar``/``y_bar`` exist once the first averaging input arrived (t >= 1).
    """

    x: Point
    y: Point
    t: int
    x_half: Optional[Point] = None
    y_half: Optional[Point] = None
    x_bar: Optional[Point] = None
    y_bar: Optional[Point] = None


def _start(m: Manifold, p: Optional[Point], rng: Optional[np.random.Generator]) -> Point:
    if p is None:
        return m.random_point(rng)
    m._require_mine(p)
    return m.point(p.value)


def initial_state(
    problem: SaddleProblem, x0: Optional[Point], y0: Optional[Point], rng: Optional[np.random.Generator] = None
) -> SolverState:
    """The state at t = 0 from (x0, y0), a missing one drawn from ``rng``, x0 first.

    A given point is read again through ``Manifold.point``, whatever made it: a point that an earlier run's exp
    made carries that exp's factor, and read again it carries its payload's own, so a run's bits depend only
    on its start payloads.
    """
    return SolverState(x=_start(problem.m_min, x0, rng), y=_start(problem.m_max, y0, rng), t=0)


class NoiseModel:
    """Additive tangent noise with E[|xi_x|^2 + |xi_y|^2] = sigma^2 exactly.

    Two sub-streams are derived from the seed; stream 0 feeds the oracle
    query at the current iterate, stream 1 the query at the half-iterate,
    keeping the two draws of one extragradient step independent.
    """

    def __init__(self, sigma: float, seed: int = 0):
        if not (sigma >= 0 and math.isfinite(sigma)):
            raise ValueError(f"sigma must be nonnegative and finite, got {sigma!r}")
        self.sigma = float(sigma)
        # Tagged, so the streams differ from the two that run() spawns from the bare seed.
        children = np.random.SeedSequence([seed, 0x9015E]).spawn(2)
        self._streams = [np.random.default_rng(c) for c in children]

    def draw(self, problem: SaddleProblem, x: Point, y: Point, stream: int) -> tuple[Tangent, Tangent]:
        rng = self._streams[stream]
        gx = problem.m_min.standard_gaussian_tangent(x, rng)
        gy = problem.m_max.standard_gaussian_tangent(y, rng)
        sx = self.sigma / math.sqrt(2.0 * problem.m_min.dim)
        sy = self.sigma / math.sqrt(2.0 * problem.m_max.dim)
        return gx * sx, gy * sy


def stochastic_oracle(
    problem: SaddleProblem, noise: Optional[NoiseModel] = None, rng: Optional[np.random.Generator] = None
) -> Oracle:
    """The oracle of srceg and srgda.

    With a :class:`NoiseModel` it is ``problem.grad`` plus noise from the
    query's stream (0 at the iterate, 1 at the half-iterate), else the
    problem's ``stochastic_grad`` drawing from ``rng``; :func:`run` seeds both.
    """
    if noise is not None:

        def noisy(x: Point, y: Point, stream: int) -> GradPair:
            gx, gy = problem.grad(x, y)
            nx, ny = noise.draw(problem, x, y, stream)
            return gx + nx, gy + ny

        return noisy
    sample = problem.stochastic_grad
    if sample is None or rng is None:
        raise ValueError("a stochastic solver needs a sigma, or a problem with a stochastic_grad oracle")
    return lambda x, y, stream: sample(x, y, rng)


def _direction(problem: SaddleProblem, z: Point, x: Point, y: Point, g: GradPair, eta: float) -> Tangent:
    """The step (-eta g_x, eta g_y) of the oracle pair ``g`` at (x, y), as one tangent at their join ``z``."""
    gx, gy = g
    _require_same_base(gx.base, x)
    _require_same_base(gy.base, y)
    return Tangent(z, problem._join(((-eta) * gx).value, (eta * gy).value))


def rceg_step(problem: SaddleProblem, state: SolverState, eta: float, oracle: Optional[Oracle] = None) -> SolverState:
    """One corrected-extragradient step (2 oracle calls).

    ``oracle=None`` is the exact ``problem.grad``; srceg passes an oracle
    from :func:`stochastic_oracle`. Each exp and log runs once on the
    ``problem.joint`` point, which gives each side the bits of a per-side call.
    """
    _positive(eta=eta)
    oracle = oracle or (lambda x, y, stream: problem.grad(x, y))
    m, z = problem.joint, problem.join(state.x, state.y)
    z_half = m.exp(z, _direction(problem, z, state.x, state.y, oracle(state.x, state.y, 0), eta))
    x_half, y_half = problem.split(z_half)
    v = _direction(problem, z_half, x_half, y_half, oracle(x_half, y_half, 1), eta)
    x_next, y_next = problem.split(m.exp(z_half, v + m.log(z_half, z)))
    return replace(state, x=x_next, y=y_next, x_half=x_half, y_half=y_half, t=state.t + 1)


def rgda_step(problem: SaddleProblem, state: SolverState, eta: float, oracle: Optional[Oracle] = None) -> SolverState:
    """One gradient descent-ascent step (1 oracle call); arguments as in :func:`rceg_step`.

    Half-iterates are untouched.
    """
    _positive(eta=eta)
    oracle = oracle or (lambda x, y, stream: problem.grad(x, y))
    z = problem.join(state.x, state.y)
    v = _direction(problem, z, state.x, state.y, oracle(state.x, state.y, 0), eta)
    x_next, y_next = problem.split(problem.joint.exp(z, v))
    return replace(state, x=x_next, y=y_next, t=state.t + 1)


def running_mean_update(m: Manifold, x_bar: Point, x_new: Point, t: int) -> Point:
    """One averaging step: exp_{x_bar}(log_{x_bar}(x_new) / (t+1)).

    ``t`` counts how many inputs the mean already absorbed; on flat space
    the recursion reproduces the arithmetic mean of all inputs.
    """
    if t < 1:
        raise ValueError("the running mean consumes its first input directly; t must be >= 1")
    return m.exp(x_bar, m.log(x_bar, x_new) * (1.0 / (t + 1)))


# -- curvature constants -------------------------------------------------------

# Below this value of (c * sqrt|kappa|)^2 the closed forms hit 0/0 and the
# series expansions of x*cot(x) and x*coth(x) are used instead.
_SERIES_CUTOFF = 1e-4


def _validate_c(c: float) -> None:
    if not math.isfinite(c) or c < 0:
        raise ValueError(f"side length must be finite and nonnegative, got {c!r}")


def xi_lower(kappa_max: float, c: float) -> float:
    """Comparison coefficient under a curvature upper bound; in (0, 1].

    Equals 1 for kappa_max <= 0 or c = 0, else c*sqrt(k)*cot(c*sqrt(k)).
    Raises for c at or beyond the cotangent pole pi/sqrt(kappa_max).
    """
    _validate_c(c)
    if not math.isfinite(kappa_max):
        raise ValueError("kappa_max must be finite")
    if kappa_max <= 0.0 or c == 0.0:
        return 1.0
    x = c * math.sqrt(kappa_max)
    if x >= math.pi:
        raise ValueError(
            f"c={c!r} is at or beyond the domain pole pi/sqrt(kappa_max)={math.pi / math.sqrt(kappa_max)!r}"
        )
    if x < _SERIES_CUTOFF:
        x2 = x * x
        return 1.0 - x2 / 3.0 - x2 * x2 / 45.0
    return x / math.tan(x)


def xi_upper(kappa_min: float, c: float) -> float:
    """Comparison coefficient under a curvature lower bound; >= 1.

    Equals 1 for kappa_min >= 0 or c = 0, else c*sqrt(-k)*coth(c*sqrt(-k)).
    """
    _validate_c(c)
    if not math.isfinite(kappa_min):
        raise ValueError("kappa_min must be finite")
    if kappa_min >= 0.0 or c == 0.0:
        return 1.0
    x = c * math.sqrt(-kappa_min)
    if x < _SERIES_CUTOFF:
        x2 = x * x
        return 1.0 + x2 / 3.0 - x2 * x2 / 45.0
    return x / math.tanh(x)


@dataclass(frozen=True)
class CurvatureConstants:
    """The three comparison constants evaluated at a reference length."""

    xi_lower0: float
    xi_upper0: float
    tau0: float
    at_c: float

    def __post_init__(self):
        if not (0.0 < self.xi_lower0 <= 1.0):
            raise ValueError("xi_lower0 must lie in (0, 1]")
        if self.xi_upper0 < 1.0:
            raise ValueError("xi_upper0 must be >= 1")
        if self.tau0 < 1.0:
            raise ValueError("tau0 must be >= 1")


def constants_at(kappa_min: float, kappa_max: float, c: float) -> CurvatureConstants:
    """Evaluate all three constants at length ``c`` (typically a diameter bound)."""
    if kappa_min > kappa_max:
        raise ValueError("kappa_min must not exceed kappa_max")
    lo = xi_lower(kappa_max, c)
    hi = xi_upper(kappa_min, c)
    return CurvatureConstants(xi_lower0=lo, xi_upper0=hi, tau0=hi / lo, at_c=c)


# -- step-size schedules -------------------------------------------------------


def _positive(**kwargs: float) -> None:
    for name, v in kwargs.items():
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite, got {v!r}")


def schedule_rceg_scsc(ell: float, mu: float, tau0: float, xi_lower0: float) -> float:
    """Constant step for the strongly-convex-concave extragradient regime."""
    _positive(ell=ell, mu=mu, tau0=tau0, xi_lower0=xi_lower0)
    if tau0 < 1 or not (0 < xi_lower0 <= 1):
        raise ValueError("need tau0 >= 1 and xi_lower0 in (0, 1]")
    return min(1.0 / (2.0 * ell * math.sqrt(tau0)), xi_lower0 / (2.0 * mu))


def schedule_srceg_scsc(
    ell: float, mu: float, tau0: float, xi_lower0: float, T: int, D0: float, sigma: float
) -> float:
    """Constant step for stochastic extragradient, strongly-convex-concave.

    The third branch 2*log(T * mu^2 D0 / sigma^2) / (mu T) is dropped
    (treated as +inf) when its log argument is <= 1, where the closed form
    would go nonpositive; sigma = 0 drops it as well.
    """
    _positive(ell=ell, mu=mu, tau0=tau0, xi_lower0=xi_lower0, D0=D0)
    if T < 1:
        raise ValueError("T must be >= 1")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    base = min(1.0 / (24.0 * ell * math.sqrt(tau0)), xi_lower0 / (2.0 * mu))
    if sigma == 0.0:
        return base
    log_arg = T * mu * mu * D0 / (sigma * sigma)
    if log_arg <= 1.0:
        return base
    return min(base, 2.0 * math.log(log_arg) / (mu * T))


def schedule_srceg_cc(ell: float, tau0: float, xi_upper0: float, T: int, D0: float, sigma: float) -> float:
    """Constant step for stochastic extragradient, convex-concave averaging regime."""
    _positive(ell=ell, tau0=tau0, xi_upper0=xi_upper0, D0=D0)
    if T < 1:
        raise ValueError("T must be >= 1")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    base = 1.0 / (4.0 * ell * math.sqrt(tau0))
    if sigma == 0.0:
        return base
    return min(base, math.sqrt(D0 / (xi_upper0 * T)) / sigma)


def schedule_rgda_scsc(mu: float, t: int) -> float:
    """Decaying step (1/mu) * min{1, 2/t} for descent-ascent; 1/mu while t <= 2."""
    _positive(mu=mu)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 1.0 / mu
    return min(1.0, 2.0 / t) / mu


def schedule_rgda_cc(big_l: float, T: int, D0: float, xi_upper0: float) -> float:
    """Constant step for descent-ascent averaging: sqrt(D0 / (2 xi T)) / L."""
    _positive(big_l=big_l, D0=D0, xi_upper0=xi_upper0)
    if T < 1:
        raise ValueError("T must be >= 1")
    return math.sqrt(D0 / (2.0 * xi_upper0 * T)) / big_l


def schedule_srgda_cc(big_l: float, sigma: float, T: int, D0: float, xi_upper0: float) -> float:
    """Constant step for stochastic descent-ascent averaging."""
    _positive(big_l=big_l, D0=D0, xi_upper0=xi_upper0)
    if T < 1:
        raise ValueError("T must be >= 1")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    return 0.5 * math.sqrt(D0 / (xi_upper0 * (big_l * big_l + sigma * sigma) * T))


def schedule_practical(ell: float, a: float, t: int) -> float:
    """Benchmark decay min{1/(2l), a/t}; the a/t branch is +inf at t = 0."""
    _positive(ell=ell, a=a)
    if t < 0:
        raise ValueError("t must be nonnegative")
    cap = 1.0 / (2.0 * ell)
    if t == 0:
        return cap
    return min(cap, a / t)


# -- run driver ----------------------------------------------------------------


@dataclass(frozen=True)
class TraceRow:
    """Metrics recorded after ``iter`` solver steps (row 0 is the start state)."""

    iter: int
    data_passes: float
    eta: float
    grad_norm: float
    grad_norm_x: float
    grad_norm_y: float
    grad_norm_avg: Optional[float] = None
    dist_gap: Optional[float] = None
    elapsed_ms: float = 0.0


@dataclass
class Trace:
    rows: list[TraceRow] = field(default_factory=list)
    # Running max of the paired distance from the initial iterates; an
    # empirical stand-in for the domain diameter reported in run headers.
    max_dist_from_init: float = 0.0

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.rows]


class DivergenceError(RuntimeError):
    """A run that failed numerically: past the divergence cap, in a geometry kernel, or above its
    tolerance at the end of its budget; carries the partial trace and last state."""

    def __init__(self, message: str, trace: Trace, state: SolverState):
        super().__init__(message)
        self.trace = trace
        self.state = state


def _reuse_last(grad: GradFn) -> GradFn:
    """``grad`` with a one-entry memo: a call at the same two points (``is``) as the last returns its pair."""
    last: list = [None, None, None]

    def memo(x: Point, y: Point) -> GradPair:
        if x is not last[0] or y is not last[1]:
            last[:] = x, y, grad(x, y)
        return last[2]

    return memo


def run(
    problem: SaddleProblem,
    solver_kind: str,
    schedule: Callable[[int], float],
    iters: int,
    seed: int,
    *,
    x0: Optional[Point] = None,
    y0: Optional[Point] = None,
    sigma: Optional[float] = None,
    reference: Optional[tuple[Point, Point]] = None,
    track_average: bool = True,
    timing: bool = False,
    tol: Optional[float] = None,
) -> tuple[Trace, SolverState]:
    """Drive up to ``iters`` steps of the chosen solver and record metrics.

    Everything is deterministic given ``seed``: initial points (when not
    pinned), the stochastic-oracle stream, and the noise sub-streams all
    derive from it. Pinned ``x0``/``y0`` are read again through
    ``Manifold.point`` (:func:`initial_state`), so only their payloads
    count. Row 0 of the trace holds the metrics of the initial state.
    Without ``tol`` every step adds a row. With ``tol`` a row is recorded
    every 25 steps and after the last one, and the run stops at
    the first such row whose gradient norm is at or below ``tol``; the
    returned state's ``t`` counts the steps taken. When the gradient norm
    of a row passes the divergence cap (1e6) or a geometry kernel fails, a
    :class:`DivergenceError` carrying the partial trace is raised; a
    geometry failure reads "at iteration t" in step t (counted from 0) or
    the row recorded after it, and "before the first step" in row 0.

    srceg and srgda run the rceg and rgda steps with the oracle of
    :func:`stochastic_oracle`: the exact gradient plus ``sigma`` noise, or
    else the problem's ``stochastic_grad``; rceg and rgda reject a ``sigma``.
    ``problem.grad`` runs with a one-entry memo, and each row evaluates the
    gradient at the averaged iterate before the one at the iterate, so the
    next step's first exact query reuses the row's. ``data_passes`` counts
    every oracle call as one pass, or as ``passes_per_call`` of the
    problem's minibatch ``stochastic_grad`` when that is the oracle.
    """
    return _drive(problem, solver_kind, schedule, iters, seed, x0, y0, sigma, reference, track_average, timing, tol)


def _drive(problem, solver_kind, schedule, iters, seed, x0, y0, sigma, reference, track_average, timing, tol):
    # The loop of run, called directly by harness.solve_reference so that bench/tracing.py sees one driver span.
    kind = SOLVER_KINDS.get(solver_kind)
    if kind is None:
        raise ValueError(f"unknown solver {solver_kind!r}; expected one of {tuple(SOLVER_KINDS)}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if sigma is not None and not kind.stochastic:
        raise ValueError(f"{solver_kind} uses the exact gradient and reads no sigma")
    problem = replace(problem, grad=_reuse_last(problem.grad))
    init_ss, stream_ss = np.random.SeedSequence(seed).spawn(2)
    noise = None if sigma is None else NoiseModel(sigma, seed)
    oracle = stochastic_oracle(problem, noise, np.random.default_rng(stream_ss)) if kind.stochastic else None
    # Only the problem's own sampler reads part of the data per call.
    sampled = kind.stochastic and sigma is None
    passes_per_call = getattr(problem.stochastic_grad, "passes_per_call", 1.0) if sampled else 1.0
    step = rceg_step if kind.extragradient else rgda_step

    state = start = initial_state(problem, x0, y0, np.random.default_rng(init_ss))

    calls = 2 if kind.extragradient else 1
    trace = Trace()
    started = time.perf_counter()

    def record(st: SolverState, eta: float) -> None:
        # The iterate's gradient last, so the memo holds it for the next step.
        gn_avg = None
        if track_average and st.x_bar is not None:
            gn_avg, _, _ = problem.grad_norms(st.x_bar, st.y_bar)
        gn, gnx, gny = problem.grad_norms(st.x, st.y)
        gap = None
        if reference is not None:
            gap = problem.distance_gap(st.x, st.y, reference)
        if st.t > 0:
            spread = math.hypot(*problem.distances(st.x, st.y, start.x, start.y))
            trace.max_dist_from_init = max(trace.max_dist_from_init, spread)
        elapsed = (time.perf_counter() - started) * 1e3 if timing else 0.0
        row = TraceRow(
            iter=st.t,
            data_passes=st.t * calls * passes_per_call,
            eta=eta,
            grad_norm=gn,
            grad_norm_x=gnx,
            grad_norm_y=gny,
            grad_norm_avg=gn_avg,
            dist_gap=gap,
            elapsed_ms=elapsed,
        )
        trace.rows.append(row)
        if not math.isfinite(gn) or gn > _DIVERGENCE_CAP:
            raise DivergenceError(
                f"gradient norm {gn!r} beyond the divergence cap at iteration {st.t}", trace, st
            )

    t = None  # no step yet
    try:
        record(state, 0.0)
        for t in range(iters):
            eta = schedule(t)
            prev = state
            state = step(problem, state, eta, oracle)
            # Extragradient averages its half-iterates, descent-ascent the pre-step iterates.
            avg_in_x, avg_in_y = (state.x_half, state.y_half) if kind.extragradient else (prev.x, prev.y)
            if track_average:
                if state.x_bar is None:
                    state = replace(state, x_bar=avg_in_x, y_bar=avg_in_y)
                else:
                    z_bar = problem.join(state.x_bar, state.y_bar)
                    z_bar = running_mean_update(problem.joint, z_bar, problem.join(avg_in_x, avg_in_y), t)
                    x_bar, y_bar = problem.split(z_bar)
                    state = replace(state, x_bar=x_bar, y_bar=y_bar)
            if tol is None or state.t % _CHECK_EVERY == 0 or state.t == iters:
                record(state, eta)
                if tol is not None and trace.rows[-1].grad_norm <= tol:
                    break
    except GeometryError as e:
        # NaN/Inf payloads and SPD eigenvalue collapse count as numeric
        # failure, from row 0 on; the partial trace is part of the result.
        where = "before the first step" if t is None else f"at iteration {t}"
        raise DivergenceError(f"geometry kernel failed {where}: {e}", trace, state) from e
    return trace, state
