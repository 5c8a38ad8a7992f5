"""Saddle-point solvers: corrected extragradient and gradient descent-ascent.

Two steps over a pair of manifolds (descend the first slot, ascend the
second), each taking a gradient oracle:

- ``rceg_step``: corrected extragradient. Half-step to (x^, y^) along the
  oracle's gradient, then a full step from the half-point with the
  correction term log_{x^}(x_t) added so the update stays a single
  exponential map.
- ``rgda_step``: simultaneous exponential-map gradient descent-ascent.

The four solvers are these two steps with two oracles. ``rceg`` and
``rgda`` use the exact ``problem.grad`` (``oracle=None``); ``srceg`` and
``srgda`` use the stochastic oracle :func:`stochastic_oracle` builds once
per run: the exact gradient plus :class:`NoiseModel` noise, or the
problem's own ``stochastic_grad`` (e.g. a minibatch sampler).

Each extragradient step consumes exactly two oracle evaluations, each
descent-ascent step exactly one, and the ``data_passes`` trace column
counts them so. The run driver evaluates the exact gradient at every
iterate it records for its ``grad_norm`` column anyway, through a one-entry
memo on ``problem.grad``, so the next step's first exact query there (the
noise oracle still adds fresh noise) costs no full gradient. The same
driver, given a stop tolerance, is the reference solve.

Step-size schedules from the convergence analysis are provided as plain
functions (one per regime), alongside the practical min{1/(2l), a/t} decay
used in benchmarks. The run driver takes any ``(t) -> eta`` callable;
``harness.build_schedule`` builds them from a run config.

``SOLVER_KINDS`` is the one list of solver names, each with the two facts
callers branch on: extragradient (two oracle calls per step, averages the
half-iterates) or descent-ascent, and exact or stochastic oracle.

Averaging: the running (Karcher) mean of iterates is maintained through the
recursion mean <- exp_mean(log_mean(z) / (t+1)). Extragradient solvers
average their half-iterates, descent-ascent solvers the pre-step iterates.
The recursion starts from the first averaged input, which on flat space
reproduces the arithmetic mean exactly.

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

from .manifolds import GeometryError, Manifold, Point, Tangent

__all__ = [
    "SaddleProblem",
    "SolverState",
    "NoiseModel",
    "initial_state",
    "stochastic_oracle",
    "rceg_step",
    "rgda_step",
    "running_mean_update",
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

GradPair = tuple[Tangent, Tangent]
GradFn = Callable[[Point, Point], GradPair]
StochasticGradFn = Callable[[Point, Point, np.random.Generator], GradPair]
# oracle(x, y, stream, rng)
Oracle = Callable[[Point, Point, int, np.random.Generator], GradPair]

# Gradient norm beyond which a run counts as diverged.
_DIVERGENCE_CAP = 1e6
# Iterations between the recorded rows of a run with a stop tolerance.
_CHECK_EVERY = 25


@dataclass(frozen=True)
class SaddleProblem:
    """A min-max objective over a product of two manifolds.

    ``value(x, y)`` is minimized over the first slot and maximized over the
    second; ``grad`` returns the pair of Riemannian gradients (ascent
    direction in both slots -- the solvers flip the sign on the min side).
    ``stochastic_grad(x, y, rng)``, when present, is an unbiased noisy
    oracle.

    The run driver, which is also the reference solve, reads its metrics
    through :meth:`grad_norms` and :meth:`distance_gap`.
    """

    m_min: Manifold
    m_max: Manifold
    value: Callable[[Point, Point], float]
    grad: GradFn
    stochastic_grad: Optional[StochasticGradFn] = None

    def grad_norms(self, x: Point, y: Point) -> tuple[float, float, float]:
        """Riemannian gradient norms at (x, y): combined, min side, max side."""
        gx, gy = self.grad(x, y)
        nx = self.m_min.norm(gx)
        ny = self.m_max.norm(gy)
        return math.hypot(nx, ny), nx, ny

    def distance_gap(self, x: Point, y: Point, reference: tuple[Point, Point]) -> float:
        """Squared-distance sum from (x, y) to the reference saddle."""
        return self.m_min.distance(x, reference[0]) ** 2 + self.m_max.distance(y, reference[1]) ** 2


@dataclass(frozen=True)
class SolverState:
    """Iterates of one run: current pair, half-iterates, running means.

    ``x_half``/``y_half`` are populated by the extragradient solvers only;
    ``x_bar``/``y_bar`` exist once the first averaging input arrived (t >= 1).
    The generator advances as the stochastic solvers consume it, so
    reproducibility is anchored at the seed used by :func:`initial_state`.
    """

    x: Point
    y: Point
    t: int
    rng: np.random.Generator
    x_half: Optional[Point] = None
    y_half: Optional[Point] = None
    x_bar: Optional[Point] = None
    y_bar: Optional[Point] = None


def initial_state(problem: SaddleProblem, x0: Point, y0: Point, seed_or_rng) -> SolverState:
    problem.m_min._require_mine(x0)
    problem.m_max._require_mine(y0)
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.default_rng(seed_or_rng)
    return SolverState(x=x0, y=y0, t=0, rng=rng)


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


def _eta_positive(eta: float) -> None:
    if not (eta > 0 and math.isfinite(eta)):
        raise ValueError(f"step size must be positive and finite, got {eta!r}")


def stochastic_oracle(problem: SaddleProblem, noise: Optional[NoiseModel] = None) -> Oracle:
    """The oracle of srceg and srgda.

    With a :class:`NoiseModel` it is ``problem.grad`` plus noise drawn from
    the query's stream (0 at the iterate, 1 at the half-iterate). Without
    one it is the problem's ``stochastic_grad`` on the state's generator.
    """
    if noise is not None:

        def noisy(x: Point, y: Point, stream: int, rng: np.random.Generator) -> GradPair:
            gx, gy = problem.grad(x, y)
            nx, ny = noise.draw(problem, x, y, stream)
            return gx + nx, gy + ny

        return noisy
    sample = problem.stochastic_grad
    if sample is None:
        raise ValueError("stochastic solver needs a NoiseModel or a problem stochastic_grad oracle")
    return lambda x, y, stream, rng: sample(x, y, rng)


def _query(
    problem: SaddleProblem, state: SolverState, oracle: Optional[Oracle], x: Point, y: Point, stream: int
) -> GradPair:
    return problem.grad(x, y) if oracle is None else oracle(x, y, stream, state.rng)


def rceg_step(problem: SaddleProblem, state: SolverState, eta: float, oracle: Optional[Oracle] = None) -> SolverState:
    """One corrected-extragradient step (2 oracle calls).

    ``oracle=None`` is the exact ``problem.grad``; srceg passes an oracle
    from :func:`stochastic_oracle`.
    """
    _eta_positive(eta)
    mx, my = problem.m_min, problem.m_max
    gx, gy = _query(problem, state, oracle, state.x, state.y, 0)
    x_half = mx.exp(state.x, (-eta) * gx)
    y_half = my.exp(state.y, eta * gy)
    gx_h, gy_h = _query(problem, state, oracle, x_half, y_half, 1)
    x_next = mx.exp(x_half, (-eta) * gx_h + mx.log(x_half, state.x))
    y_next = my.exp(y_half, eta * gy_h + my.log(y_half, state.y))
    return replace(state, x=x_next, y=y_next, x_half=x_half, y_half=y_half, t=state.t + 1)


def rgda_step(problem: SaddleProblem, state: SolverState, eta: float, oracle: Optional[Oracle] = None) -> SolverState:
    """One gradient descent-ascent step (1 oracle call); arguments as in :func:`rceg_step`.

    Half-iterates are untouched.
    """
    _eta_positive(eta)
    gx, gy = _query(problem, state, oracle, state.x, state.y, 0)
    x_next = problem.m_min.exp(state.x, (-eta) * gx)
    y_next = problem.m_max.exp(state.y, eta * gy)
    return replace(state, x=x_next, y=y_next, t=state.t + 1)


def running_mean_update(m: Manifold, x_bar: Point, x_new: Point, t: int) -> Point:
    """One averaging step: exp_{x_bar}(log_{x_bar}(x_new) / (t+1)).

    ``t`` counts how many inputs the mean already absorbed; on flat space
    the recursion reproduces the arithmetic mean of all inputs.
    """
    if t < 1:
        raise ValueError("the running mean consumes its first input directly; t must be >= 1")
    return m.exp(x_bar, m.log(x_bar, x_new) * (1.0 / (t + 1)))


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

    def validate(self) -> None:
        iters = self.column("iter")
        if iters != sorted(set(iters)):
            raise ValueError("iteration numbers must be strictly increasing")
        passes = self.column("data_passes")
        if any(b < a for a, b in zip(passes, passes[1:])):
            raise ValueError("data passes must be nondecreasing")
        for r in self.rows:
            for name in ("data_passes", "eta", "grad_norm", "grad_norm_x", "grad_norm_y", "elapsed_ms"):
                v = getattr(r, name)
                if not math.isfinite(v):
                    raise ValueError(f"non-finite {name} at iteration {r.iter}")


class DivergenceError(RuntimeError):
    """Raised when a run blows past the divergence cap; carries the partial trace."""

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
    noise: Optional[NoiseModel] = None,
    reference: Optional[tuple[Point, Point]] = None,
    track_average: bool = True,
    timing: bool = False,
    tol: Optional[float] = None,
) -> tuple[Trace, SolverState]:
    """Drive up to ``iters`` steps of the chosen solver and record metrics.

    Everything is deterministic given ``seed``: initial points (when not
    pinned), the stochastic-oracle stream, and the noise sub-streams all
    derive from it. Row 0 of the trace holds the metrics of the initial
    state. Without ``tol`` every step adds a row. With ``tol`` a row is
    recorded every 25 steps and after the last one, and the run stops at
    the first such row whose gradient norm is at or below ``tol``; the
    returned state's ``t`` counts the steps taken. When the gradient norm
    of a row passes the divergence cap (1e6) or a geometry kernel fails, a
    :class:`DivergenceError` carrying the partial trace is raised.

    srceg and srgda run the rceg and rgda steps with the oracle of
    :func:`stochastic_oracle`; ``noise`` is read by those two only.
    ``problem.grad`` runs with a one-entry memo, and each row evaluates the
    gradient at the averaged iterate before the one at the iterate, so the
    next step's first exact query reuses the row's. ``data_passes`` counts
    every oracle call as one pass, or as ``passes_per_call`` of the
    problem's minibatch ``stochastic_grad`` when that is the oracle.
    """
    return _drive(problem, solver_kind, schedule, iters, seed, x0, y0, noise, reference, track_average, timing, tol)


def _drive(problem, solver_kind, schedule, iters, seed, x0, y0, noise, reference, track_average, timing, tol):
    # The loop of run, called directly by harness.solve_reference so that bench/tracing.py sees one driver span.
    kind = SOLVER_KINDS.get(solver_kind)
    if kind is None:
        raise ValueError(f"unknown solver {solver_kind!r}; expected one of {tuple(SOLVER_KINDS)}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    problem = replace(problem, grad=_reuse_last(problem.grad))
    oracle = stochastic_oracle(problem, noise) if kind.stochastic else None
    # Only the problem's own sampler reads part of the data per call.
    sampled = kind.stochastic and noise is None
    passes_per_call = getattr(problem.stochastic_grad, "passes_per_call", 1.0) if sampled else 1.0
    step = rceg_step if kind.extragradient else rgda_step

    init_ss, stream_ss = np.random.SeedSequence(seed).spawn(2)
    init_rng = np.random.default_rng(init_ss)
    if x0 is None:
        x0 = problem.m_min.random_point(init_rng)
    if y0 is None:
        y0 = problem.m_max.random_point(init_rng)
    state = initial_state(problem, x0, y0, np.random.default_rng(stream_ss))

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
            spread = math.hypot(problem.m_min.distance(st.x, x0), problem.m_max.distance(st.y, y0))
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

    record(state, 0.0)
    for t in range(iters):
        eta = schedule(t)
        try:
            prev = state
            state = step(problem, state, eta, oracle)
            # Extragradient averages its half-iterates, descent-ascent the pre-step iterates.
            avg_in_x, avg_in_y = (state.x_half, state.y_half) if kind.extragradient else (prev.x, prev.y)
            if track_average:
                if state.x_bar is None:
                    state = replace(state, x_bar=avg_in_x, y_bar=avg_in_y)
                else:
                    state = replace(
                        state,
                        x_bar=running_mean_update(problem.m_min, state.x_bar, avg_in_x, t),
                        y_bar=running_mean_update(problem.m_max, state.y_bar, avg_in_y, t),
                    )
            if tol is None or state.t % _CHECK_EVERY == 0 or state.t == iters:
                record(state, eta)
                if tol is not None and trace.rows[-1].grad_norm <= tol:
                    break
        except GeometryError as e:
            # NaN/Inf payloads and SPD eigenvalue collapse count as numeric
            # failure; the partial trace is part of the result.
            raise DivergenceError(f"geometry kernel failed at iteration {t}: {e}", trace, state) from e

    trace.validate()
    return trace, state
