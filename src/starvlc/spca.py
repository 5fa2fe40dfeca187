"""Sum-rate maximization over the reflection coefficients.

Outer loop: sequential parametric convex approximation. The bilinear term
sqrt(u) * v in the SINR lower-bound constraint is replaced by the convex
upper bound u / (2 theta) + v^2 * theta / 2, tight at theta = sqrt(u) / v.
At each outer iteration the auxiliary variables are eliminated analytically
(both constraints are tight at the subproblem optimum), leaving a smooth
concave objective over the box [0, 1]^N that is maximized by projected
gradient ascent with a spectral (Barzilai-Borwein) step and Armijo
backtracking.

With the signal term A_k and interference-norm term V_k defined per scheme
(see `_ReducedProblem.terms`), the eliminated SINR bound is

    u_k(beta) = max(0, 2 * theta_k * A_k(beta) - theta_k^2 * V_k(beta)^2)

and user k's reduced rate is F_k = 0.5 * log2(1 + (e/2pi) * u_k). Each
variant passes `_pga` its own objective of the F_k: energy splitting (and
mode switching, which binarizes its optimum) F_1 + F_2, max-min
min(F_1, F_2); time-sharing, a vertex in closed form, passes none. Each u_k
depends on beta only through the effective gains H1 = h_los + beta.h_reflect
and H2 = sum(h_transmit) - beta.h_transmit, so an objective F of the u_k has
grad F = (dF/dH1) * h_reflect - (dF/dH2) * h_transmit: F and its two
slopes cost two dot products; `_pga` combines gradients per accepted step.
Each backtracking trial costs one fresh candidate t * g + beta, one
in-place projection onto the box and one objective call with its two dot
products; the step d and the Armijo product g.d are formed only when the
trial's value has not fallen.

Each outer iteration makes the surrogate tight again at the new iterate from
one `terms` call: the auxiliaries are recovered as v_k = sqrt(V_k^2) and
u_k = (A_k / v_k)^2, the exact SINR, whose rates give the trace's sum-rate,
and theta_k = sqrt(u_k) / v_k. V_k^2 >= min(1, sigma^2) > 0, so v_k > 0;
a user keeps its previous theta_k where u_k = 0 (a dead channel) or
v_k < 1e-30. theta, u and v are float pairs; a result's `iterations` is its
trace's length. A multistart's start stops on meeting an earlier one.

Every solver runs with one fixed set of settings, `SETTINGS`; none takes
settings as an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelSet, Scenario
# `sum_rate` is unused here, but tracers wrap it (and `rate_pair`) by name in this module.
from .link import (
    RATE_SINR_SCALE,
    DetectorScheme,
    RatePair,
    pair_from_rates,
    rate,
    rate_pair,
    sum_rate,
)
from .oracle import vertex_enumerate

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class SpcaConfig:
    """The solver's fixed settings. `SETTINGS` is the one instance the
    solvers read; run manifests record it field by field (`spca.*`)."""

    theta_init: float = 100.0
    tolerance: float = 1e-6
    max_outer_iterations: int = 50
    inner_tolerance: float = 1e-8
    max_inner_iterations: int = 5000
    armijo_shrink: float = 0.5
    armijo_slope: float = 1e-4
    step_init: float = 1.0
    beta_init: float = 0.5


SETTINGS = SpcaConfig()


@dataclass(frozen=True)
class SurrogateState:
    """Surrogate parameters and recovered auxiliaries, each a float pair (user 1, user 2)."""

    theta: tuple[float, float]
    u: tuple[float, float]
    v: tuple[float, float]


@dataclass(frozen=True)
class TraceEntry:
    objective: float  # the reduced objective `_pga` maximised, at the iterate
    sum_rate: float  # exact sum-rate at the iterate
    state: SurrogateState


@dataclass(frozen=True)
class SpcaResult:
    """What every solver returns. `alpha` is time-sharing's weight on user
    1 (1.0 when user 1 is served, 0.0 when user 2 is) and None for the
    other solvers; time-sharing keeps no trace."""

    beta: np.ndarray
    rates: RatePair
    trace: list[TraceEntry]
    converged: bool
    alpha: float | None = None

    @property
    def iterations(self) -> int:
        """Outer iterations run: one trace entry each (0 for time-sharing)."""
        return len(self.trace)

    def served_rates(self, scenario: Scenario) -> RatePair:
        """The rates delivered: time-sharing serves user 1 a share `alpha` of
        the time and user 2 the rest, so alpha * r1 and (1 - alpha) * r2 of
        `rates` at its `beta`; another solver delivers `rates`."""
        alpha = self.alpha
        if alpha is None:
            return self.rates
        return pair_from_rates(alpha * self.rates.r1, (1.0 - alpha) * self.rates.r2, scenario)


class _ReducedProblem:
    """Reduced objective with the auxiliary variables eliminated.

    Precomputes everything that does not depend on beta so the inner loop
    stays cheap.
    """

    def __init__(self, channels: ChannelSet, scenario: Scenario, scheme: DetectorScheme):
        rho = scenario.front_end.responsivity
        self.a1 = rho * scenario.p1
        self.a2 = rho * scenario.p2
        self.sigma2 = scenario.noise_variance
        self.sigma = math.sqrt(self.sigma2)
        self.h_los = channels.h_los
        self.hr = channels.h_reflect
        self.ht = channels.h_transmit
        self.ht_sum = float(self.ht.sum())
        self.scheme = scheme
        self.sic = scheme is DetectorScheme.SIC
        self.dead = channels.dead
        self.channels = channels
        self.scenario = scenario

    def gains(self, beta: np.ndarray) -> tuple[float, float]:
        h1 = self.h_los + float(beta.dot(self.hr))
        h2 = self.ht_sum - float(beta.dot(self.ht))
        return h1, h2

    def terms(self, beta: np.ndarray) -> tuple[tuple[float, float], tuple[float, float]]:
        """Signal terms (A1, A2) and interference-norm squares (V1^2, V2^2)."""
        h1, h2 = self.gains(beta)
        g1 = self.a1 * h1
        g2 = self.a2 * h2
        if self.sic:
            return (g1 / self.sigma, g2), (1.0, g1 * g1 + self.sigma2)
        return (g1, g2), (g2 * g2 + self.sigma2, g1 * g1 + self.sigma2)

    def user_values(self, beta: np.ndarray, theta):
        """Per user k, (value, dvalue/dg1, dvalue/dg2) of 0.5 * log2(1 + c * u_k),
        where g_k = rho * p_k * H_k; all three are 0 where u_k <= 0."""
        g1 = self.a1 * (self.h_los + float(beta.dot(self.hr)))
        g2 = self.a2 * (self.ht_sum - float(beta.dot(self.ht)))
        t1, t2 = theta
        if self.sic:  # A1 = g1 / sigma, V1^2 = 1
            u1 = 2.0 * t1 * (g1 / self.sigma) - t1 * t1
            x1, y1 = 2.0 * t1 / self.sigma, 0.0
        else:  # A1 = g1, V1^2 = g2^2 + sigma^2
            u1 = 2.0 * t1 * g1 - t1 * t1 * (g2 * g2 + self.sigma2)
            x1, y1 = 2.0 * t1, -2.0 * t1 * t1 * g2
        # both schemes: A2 = g2, V2^2 = g1^2 + sigma^2
        u2 = 2.0 * t2 * g2 - t2 * t2 * (g1 * g1 + self.sigma2)
        x2, y2 = -2.0 * t2 * t2 * g1, 2.0 * t2
        # value 0.5 * log2(1 + c * u) and slopes drate/du * (du/dg1, du/dg2)
        c = RATE_SINR_SCALE
        if u1 <= 0.0:
            user1 = 0.0, 0.0, 0.0
        else:
            s = 0.5 * c / (_LN2 * (1.0 + c * u1))
            user1 = 0.5 * math.log2(1.0 + c * u1), s * x1, s * y1
        if u2 <= 0.0:
            user2 = 0.0, 0.0, 0.0
        else:
            s = 0.5 * c / (_LN2 * (1.0 + c * u2))
            user2 = 0.5 * math.log2(1.0 + c * u2), s * x2, s * y2
        return user1, user2

    def value_slopes(self, beta: np.ndarray, theta) -> tuple[float, float, float]:
        """Sum objective and its slopes (dF/dg1, dF/dg2)."""
        (f1, x1, y1), (f2, x2, y2) = self.user_values(beta, theta)
        return f1 + f2, x1 + x2, y1 + y2

    def min_value_slopes(self, beta: np.ndarray, theta) -> tuple[float, float, float]:
        """Pointwise-min objective and a subgradient's slopes (max-min fairness)."""
        (f1, x1, y1), (f2, x2, y2) = self.user_values(beta, theta)
        if abs(f1 - f2) < 1e-15:
            return f1, 0.5 * (x1 + x2), 0.5 * (y1 + y2)
        return (f1, x1, y1) if f1 <= f2 else (f2, x2, y2)

    def gradient(self, x: float, y: float) -> np.ndarray:
        """The gradient in beta of an objective with slopes (x, y)."""
        return self.a1 * x * self.hr - self.a2 * y * self.ht


def check_float_range(channels: ChannelSet, scenario: Scenario) -> None:
    """Raise ValueError if the powers and noise variance can overflow the
    solvers' floats.

    Over the box every amplitude |g_k| is at most `g` and every theta the
    outer loop reaches (theta_init, or A_k / V_k^2 with V_k^2 >= min(1,
    sigma^2)) at most `t`; every SINR is below t^2. `term` bounds each term
    and slope `user_values` forms, `grad` each gradient entry (a_k |h_i| <=
    g); `_pga` scales a gradient by at most 1e12 or sums N products of
    them, and 1e3 covers the constant factors."""
    rho, sigma2 = scenario.front_end.responsivity, scenario.noise_variance
    sigma = math.sqrt(sigma2)
    g = max(rho * scenario.p1 * (abs(channels.h_los) + float(np.abs(channels.h_reflect).sum())),
            rho * scenario.p2 * float(np.abs(channels.h_transmit).sum()))
    t = max(SETTINGS.theta_init, 1.0, g / sigma, g / sigma2)
    term = t * t * (g * g + sigma2 + 1.0) * (1.0 + 1.0 / sigma)
    grad = RATE_SINR_SCALE * term * (g + 1.0)
    if not math.isfinite(grad * (channels.element_count + 1) * 1e15):
        raise ValueError(f"powers {scenario.p1!r} W, {scenario.p2!r} W overflow the "
                         f"solver's floats at noise variance {sigma2!r}")


def _positive_theta(theta) -> tuple[float, float]:
    t1, t2 = map(float, theta)
    if not (0.0 < t1 < math.inf and 0.0 < t2 < math.inf):
        raise ValueError("surrogate parameters must be positive and finite")
    return t1, t2


def reduced_objective(beta, theta, channels: ChannelSet, scenario: Scenario,
                      scheme: DetectorScheme):
    """Reduced sum-rate objective value and exact gradient at `beta`, for `theta`
    any array-like of two positive finite surrogate parameters."""
    theta = _positive_theta(theta)
    prob = _ReducedProblem(channels, scenario, scheme)
    f, x, y = prob.value_slopes(np.asarray(beta, dtype=float), theta)
    return f, prob.gradient(x, y)


def _project(beta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`beta` clipped to the box [0, 1], written into `out` when it is given
    (`out` may be `beta` itself)."""
    out = np.maximum(beta, 0.0, out=out)
    return np.minimum(out, 1.0, out=out)


def _pga(prob, objective, theta, beta0: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Projected gradient ascent over the box of `objective` -> (f, x, y), whose
    gradient is `prob.gradient(x, y)`, with BB step + Armijo backtracking.

    Precondition: `beta0` lies in the box. Every caller passes a `_start`
    vector or an iterate `_pga` returned, so it is not projected again.
    `_pga` never writes into `beta0` or into any iterate; the one it returns
    may be `beta0` itself.

    The spectral step keeps the iteration scale-invariant; the very first
    step falls back to `SETTINGS.step_init`. Returns (beta, its value,
    converged).

    Each trial builds a fresh candidate t * g + beta, projects it in place
    and takes its value fc first. The projection never moves a coordinate
    against its gradient entry, so g @ (cand - beta) >= 0 in floats
    (test_projection_step_never_opposes_the_gradient) and fc < f fails Armijo
    with no step d formed; a stall (d == 0, so fc == f) is caught on the other
    branch. Gradients are formed only at the start and at accepted steps.
    """
    tolerance, step_init = SETTINGS.inner_tolerance, SETTINGS.step_init
    slope, shrink = SETTINGS.armijo_slope, SETTINGS.armijo_shrink
    beta = beta0
    f, x, y = objective(beta, theta)
    g = prob.gradient(x, y)
    step = step_init
    d = prev_g = None
    for _ in range(SETTINGS.max_inner_iterations):
        pg = beta + g  # the projected-gradient step, formed in place
        _project(pg, pg)
        pg -= beta
        if np.abs(pg, out=pg).max(initial=0.0) < tolerance:
            return beta, f, True
        if d is not None:  # d = beta - prev_beta, the step last accepted
            dg = g - prev_g
            denom = float(d.dot(dg))
            if denom < 0.0:  # ascent: curvature along d should be negative
                step = float(d.dot(d)) / (-denom)
            else:
                step = step_init
            step = min(max(step, 1e-12), 1e12)
        accepted = False
        t = step
        for _bt in range(200):
            cand = np.multiply(g, t)
            cand += beta
            _project(cand, cand)
            fc, xc, yc = objective(cand, theta)
            if fc >= f:
                d = cand - beta
                if not d.any():
                    break
                if fc >= f + slope * float(g.dot(d)):
                    accepted = True
                    break
            t *= shrink
        if not accepted:
            # no ascent step found: treat as converged at a stationary point
            return beta, f, True
        prev_g = g
        beta, f, g = cand, fc, prob.gradient(xc, yc)
    return beta, f, False


def _start(prob: _ReducedProblem, value: float) -> np.ndarray:
    """A start vector: `value` at every element but the dead ones (both
    gains 0), which get 1. A dead element's gradient is 0, so it keeps its
    start value; the oracle's walk, and so mode switching, gives it 1 too."""
    return np.where(prob.dead, 1.0, value)


def solve_subproblem(theta, channels: ChannelSet, scenario: Scenario,
                     scheme: DetectorScheme):
    """Maximize the reduced sum-rate objective over the box for fixed theta (two
    positive finite numbers) from the midpoint start `SETTINGS.beta_init` (1 at dead elements).

    Returns (beta, inner_converged).
    """
    theta = _positive_theta(theta)
    prob = _ReducedProblem(channels, scenario, scheme)
    beta, _, converged = _pga(prob, prob.value_slopes, theta, _start(prob, SETTINGS.beta_init))
    return beta, converged


def _spca_loop(prob: _ReducedProblem, objective, beta0: float, seen: set) -> SpcaResult | None:
    """The outer loop from `beta0`; None at a state (m, theta, beta) in `seen`."""
    theta = (SETTINGS.theta_init,) * 2
    tolerance = SETTINGS.tolerance
    beta = _start(prob, beta0)
    trace: list[TraceEntry] = []
    converged = False
    inner_ok = True
    for m in range(SETTINGS.max_outer_iterations):
        state = (m, theta, beta.tobytes())
        if state in seen:
            return None
        seen.add(state)
        prev_beta = beta
        beta, value, ok = _pga(prob, objective, theta, prev_beta)
        inner_ok = inner_ok and ok
        (a1, a2), (w1, w2) = prob.terms(beta)
        v = (math.sqrt(w1), math.sqrt(w2))
        q1, q2 = a1 / v[0], a2 / v[1]
        u = (q1 * q1, q2 * q2)
        trace.append(TraceEntry(value, rate(u[0]) + rate(u[1]), SurrogateState(theta, u, v)))
        uv = u + v
        # the beta move is formed only when the u and v moves pass
        if (len(trace) > 1 and max(abs(now - was) for now, was in zip(uv, prev_uv)) < tolerance
                and np.abs(beta - prev_beta).max(initial=0.0) < tolerance):
            converged = True
            break
        prev_uv = uv
        theta = tuple(t if uk <= 0.0 or vk < 1e-30 else math.sqrt(uk) / vk
                      for t, uk, vk in zip(theta, u, v))
    rates = rate_pair(prob.channels, beta, prob.scenario, prob.scheme)
    return SpcaResult(beta=beta, rates=rates, trace=trace, converged=converged and inner_ok)


def _spca_multistart(prob: _ReducedProblem, objective, score) -> SpcaResult:
    """Run the outer loop on `objective` (as `_pga` takes it) from the
    midpoint start plus the two vertex starts (each 1 at dead elements) and
    keep the first result with the highest `score` of its exact rates.

    The sum-rate landscape splits into a serve-user-1 and a serve-user-2
    basin; a single local ascent from the midpoint can settle in the wrong
    one, so the all-reflect and all-transmit starts cover both. A start stops
    with no result at a state (m, theta, beta) an earlier one reached at
    outer iteration m: the u, v and beta the convergence test compares are
    functions of beta, the budget left of m, so it would end as the earlier
    start, which `max` keeps first. Starts that meet at different m can end
    differently (at the cap, or on the first iteration, which cannot stop).
    """
    seen: set = set()
    results = [_spca_loop(prob, objective, b, seen) for b in (SETTINGS.beta_init, 0.0, 1.0)]
    return max((r for r in results if r is not None), key=lambda r: score(r.rates))


def spca_optimize(channels: ChannelSet, scenario: Scenario,
                  scheme: DetectorScheme) -> SpcaResult:
    """Energy-splitting sum-rate maximization (continuous coefficients)."""
    prob = _ReducedProblem(channels, scenario, scheme)
    return _spca_multistart(prob, prob.value_slopes, lambda r: r.sum)


def mode_switching_optimize(channels: ChannelSet, scenario: Scenario,
                            scheme: DetectorScheme) -> SpcaResult:
    """Binary (fully reflect / fully transmit) coefficients: energy
    splitting's result when its `beta` is binary, else that result with the
    exact binary optimum, `vertex_enumerate`'s best chain vertex, and its
    rates. The walk is exact over binary vectors: proven for SIC (`oracle`'s
    docstring), checked for SUD against the 2^N Gray-code enumeration in
    tests/test_kernels.py."""
    result = spca_optimize(channels, scenario, scheme)
    if np.all((result.beta == 0.0) | (result.beta == 1.0)):
        return result
    report = vertex_enumerate(channels, scenario, scheme)
    return replace(result, beta=report.best_beta, rates=report.best_rates)


def time_sharing_optimize(channels: ChannelSet, scenario: Scenario,
                          scheme: DetectorScheme) -> SpcaResult:
    """Best alpha * R1 + (1 - alpha) * R2 over coefficients and alpha in [0, 1].

    For fixed coefficients the objective is linear in alpha, so the joint
    optimum is the larger of the two single-user optima (ties to alpha = 1),
    each a vertex in closed form. A user's rate rises with its own effective
    gain and falls with the other's (user 1's under SIC ignores it): beta = 1
    maximises H1 and sets H2 to 0; beta = 0 maximises H2 and leaves H1 at
    h_los (dead elements stay at 1). No iteration runs.
    """
    beta1 = np.ones(channels.element_count)
    beta2 = np.where(channels.dead, 1.0, 0.0)
    rates1, rates2 = (rate_pair(channels, b, scenario, scheme) for b in (beta1, beta2))
    beta, rates, alpha = (beta1, rates1, 1.0) if rates1.r1 >= rates2.r2 else (beta2, rates2, 0.0)
    return SpcaResult(beta, rates, trace=[], converged=True, alpha=alpha)


def max_min_optimize(channels: ChannelSet, scenario: Scenario,
                     scheme: DetectorScheme) -> SpcaResult:
    """Maximize min(R1, R2) over the box (max-min fairness benchmark)."""
    prob = _ReducedProblem(channels, scenario, scheme)
    return _spca_multistart(prob, prob.min_value_slopes, lambda r: min(r.r1, r.r2))
