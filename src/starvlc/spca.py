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

and the reduced objective is sum_k w_k * 0.5 * log2(1 + (e/2pi) * u_k).

Every solver runs with one fixed set of settings, `SETTINGS`; none takes
settings as an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelSet, Scenario
from .link import (
    RATE_SINR_SCALE,
    DetectorScheme,
    RatePair,
    effective_channels,
    rate_pair,
    rates_from_gains,
    sum_rate,
)

_LN2 = math.log(2.0)


class Objective(Enum):
    SUM_RATE = "sum"
    TIME_SHARING = "timeshare"
    MAX_MIN = "maxmin"


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
    """Per-user surrogate parameters and recovered auxiliary values."""

    theta: np.ndarray
    u: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class TraceEntry:
    objective: float  # the reduced objective `_pga` maximised, at the iterate
    sum_rate: float  # exact sum-rate at the iterate
    state: SurrogateState


@dataclass(frozen=True)
class SpcaResult:
    beta: np.ndarray
    rates: RatePair
    trace: list[TraceEntry]
    converged: bool
    iterations: int


@dataclass(frozen=True)
class TimeSharingResult:
    rates: RatePair
    alpha: float
    beta: np.ndarray
    converged: bool
    iterations: int = 0


class _ReducedProblem:
    """Reduced objective with the auxiliary variables eliminated.

    Precomputes everything that does not depend on beta so the inner loop
    stays cheap.
    """

    def __init__(self, channels: ChannelSet, scenario: Scenario, scheme: DetectorScheme,
                 weights=(1.0, 1.0)):
        rho = scenario.front_end.responsivity
        self.a1 = rho * scenario.p1
        self.a2 = rho * scenario.p2
        self.sigma2 = scenario.noise_variance
        self.sigma = math.sqrt(self.sigma2)
        self.h_los = channels.h_los
        self.hr = channels.h_reflect
        self.ht = channels.h_transmit
        self.scheme = scheme
        self.weights = np.asarray(weights, dtype=float)
        self.n = channels.element_count

    def gains(self, beta: np.ndarray) -> tuple[float, float]:
        h1 = self.h_los + float(beta @ self.hr)
        h2 = float(self.ht.sum() - beta @ self.ht)
        return h1, h2

    def terms(self, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Signal terms A and interference-norm squares V^2, per user."""
        h1, h2 = self.gains(beta)
        g1 = self.a1 * h1
        g2 = self.a2 * h2
        if self.scheme is DetectorScheme.SIC:
            a = np.array([g1 / self.sigma, g2])
            v2 = np.array([1.0, g1 * g1 + self.sigma2])
        else:
            a = np.array([g1, g2])
            v2 = np.array([g2 * g2 + self.sigma2, g1 * g1 + self.sigma2])
        return a, v2

    def user_values_grads(self, beta: np.ndarray, theta: np.ndarray):
        """Per-user reduced rate values and gradients w.r.t. beta."""
        h1, h2 = self.gains(beta)
        g1 = self.a1 * h1
        g2 = self.a2 * h2
        # dH1/dbeta = hr, dH2/dbeta = -ht
        dg1 = self.a1 * self.hr
        dg2 = -self.a2 * self.ht
        if self.scheme is DetectorScheme.SIC:
            a = (g1 / self.sigma, g2)
            da = (dg1 / self.sigma, dg2)
            v2 = (1.0, g1 * g1 + self.sigma2)
            dv2 = (None, 2.0 * g1 * dg1)
        else:
            a = (g1, g2)
            da = (dg1, dg2)
            v2 = (g2 * g2 + self.sigma2, g1 * g1 + self.sigma2)
            dv2 = (2.0 * g2 * dg2, 2.0 * g1 * dg1)
        values = np.empty(2)
        grads = np.empty((2, self.n))
        for k in range(2):
            t = theta[k]
            u = 2.0 * t * a[k] - t * t * v2[k]
            if u <= 0.0:
                values[k] = 0.0
                grads[k] = 0.0
                continue
            values[k] = 0.5 * math.log2(1.0 + RATE_SINR_SCALE * u)
            du = 2.0 * t * da[k]
            if dv2[k] is not None:
                du = du - t * t * dv2[k]
            drate_du = 0.5 * RATE_SINR_SCALE / (_LN2 * (1.0 + RATE_SINR_SCALE * u))
            grads[k] = drate_du * du
        return values, grads

    def value_grad(self, beta: np.ndarray, theta: np.ndarray) -> tuple[float, np.ndarray]:
        values, grads = self.user_values_grads(beta, theta)
        return float(self.weights @ values), self.weights @ grads

    def min_value_grad(self, beta: np.ndarray, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Pointwise-min objective and a subgradient (for max-min fairness)."""
        values, grads = self.user_values_grads(beta, theta)
        if abs(values[0] - values[1]) < 1e-15:
            return float(values[0]), 0.5 * (grads[0] + grads[1])
        k = int(np.argmin(values))
        return float(values[k]), grads[k]


def reduced_objective(beta, theta, channels: ChannelSet, scenario: Scenario,
                      scheme: DetectorScheme):
    """Reduced sum-rate objective value and exact gradient at `beta`.

    `theta` is the pair of surrogate parameters (array-like of length 2).
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0):
        raise ValueError("surrogate parameters must be positive")
    prob = _ReducedProblem(channels, scenario, scheme)
    beta = np.asarray(beta, dtype=float)
    return prob.value_grad(beta, theta)


def _project(beta: np.ndarray) -> np.ndarray:
    return np.clip(beta, 0.0, 1.0)


def _pga(fg, theta: np.ndarray, beta0: np.ndarray) -> tuple[np.ndarray, bool]:
    """Projected gradient ascent of `fg(beta, theta)` -> (value, gradient)
    over the box with BB step + Armijo backtracking.

    The spectral step keeps the iteration scale-invariant; the very first
    step falls back to `SETTINGS.step_init`.
    """
    beta = _project(np.asarray(beta0, dtype=float).copy())
    if beta.size == 0:
        return beta, True
    f, g = fg(beta, theta)
    step = SETTINGS.step_init
    prev_beta = None
    prev_g = None
    for _ in range(SETTINGS.max_inner_iterations):
        pg = _project(beta + g) - beta
        if float(np.max(np.abs(pg))) < SETTINGS.inner_tolerance:
            return beta, True
        if prev_beta is not None:
            db = beta - prev_beta
            dg = g - prev_g
            denom = float(db @ dg)
            if denom < 0.0:  # ascent: curvature along db should be negative
                step = float(db @ db) / (-denom)
            else:
                step = SETTINGS.step_init
            step = min(max(step, 1e-12), 1e12)
        accepted = False
        t = step
        for _bt in range(200):
            cand = _project(beta + t * g)
            d = cand - beta
            if float(np.max(np.abs(d))) == 0.0:
                break
            fc, gc = fg(cand, theta)
            if fc >= f + SETTINGS.armijo_slope * float(g @ d):
                accepted = True
                break
            t *= SETTINGS.armijo_shrink
        if not accepted:
            # no ascent step found: treat as converged at a stationary point
            return beta, True
        prev_beta, prev_g = beta, g
        beta, f, g = cand, fc, gc
    return beta, False


def solve_subproblem(theta, channels: ChannelSet, scenario: Scenario,
                     scheme: DetectorScheme):
    """Maximize the reduced sum-rate objective over the box for fixed theta,
    from the midpoint start `SETTINGS.beta_init`.

    Returns (beta, inner_converged).
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0):
        raise ValueError("surrogate parameters must be positive")
    prob = _ReducedProblem(channels, scenario, scheme)
    return _pga(prob.value_grad, theta, np.full(prob.n, SETTINGS.beta_init))


def _recover_auxiliaries(prob: _ReducedProblem, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, v) satisfying the original SINR constraints tightly at `beta`.

    The norm bound is tight at v = sqrt(V^2) and the bilinear bound at
    u = (A / V)^2, i.e. the exact SINR of the iterate.
    """
    a, v2 = prob.terms(beta)
    v = np.sqrt(v2)
    u = np.where(v > 0.0, (a / v) ** 2, 0.0)
    return u, v


def _theta_update(u: np.ndarray, v: np.ndarray, theta_prev: np.ndarray) -> np.ndarray:
    """theta <- sqrt(u) / v, guarded for degenerate auxiliary values.

    With the recovered auxiliaries this makes the surrogate tight at the
    current iterate (the equality point of the convex upper bound). A user
    with a dead channel (u = 0) or vanishing norm bound keeps its previous
    parameter.
    """
    theta = np.empty(2)
    for k in range(2):
        if v[k] < 1e-30 or u[k] <= 0.0:
            theta[k] = theta_prev[k]
        else:
            theta[k] = math.sqrt(u[k]) / v[k]
    return theta


def _spca_loop(channels: ChannelSet, scenario: Scenario, scheme: DetectorScheme,
               beta0: float, weights, minmax: bool) -> SpcaResult:
    prob = _ReducedProblem(channels, scenario, scheme, weights)
    fg = prob.min_value_grad if minmax else prob.value_grad
    theta = np.full(2, SETTINGS.theta_init)
    beta = np.full(prob.n, beta0)
    trace: list[TraceEntry] = []
    prev = None  # (beta, u, v) of the previous outer iteration
    converged = False
    inner_ok = True
    iterations = 0
    for _m in range(SETTINGS.max_outer_iterations):
        beta, ok = _pga(fg, theta, beta)
        inner_ok = inner_ok and ok
        iterations += 1
        u, v = _recover_auxiliaries(prob, beta)
        trace.append(TraceEntry(objective=fg(beta, theta)[0],
                                sum_rate=sum_rate(channels, beta, scenario, scheme),
                                state=SurrogateState(theta=theta.copy(), u=u, v=v)))
        if prev is not None:
            delta = max(
                float(np.max(np.abs(beta - prev[0]))) if prob.n else 0.0,
                float(np.max(np.abs(u - prev[1]))),
                float(np.max(np.abs(v - prev[2]))),
            )
            if delta < SETTINGS.tolerance:
                converged = True
                break
        prev = (beta.copy(), u.copy(), v.copy())
        theta = _theta_update(u, v, theta)
    rates = rate_pair(channels, beta, scenario, scheme)
    return SpcaResult(beta=beta, rates=rates, trace=trace,
                      converged=converged and inner_ok, iterations=iterations)


def _score(result: SpcaResult, weights, minmax: bool) -> float:
    if minmax:
        return min(result.rates.r1, result.rates.r2)
    return weights[0] * result.rates.r1 + weights[1] * result.rates.r2


def _spca_multistart(channels: ChannelSet, scenario: Scenario, scheme: DetectorScheme,
                     weights=(1.0, 1.0), minmax: bool = False) -> SpcaResult:
    """Run the outer loop from the midpoint start plus the two vertex
    starts and keep the best exact objective.

    The sum-rate landscape splits into a serve-user-1 and a serve-user-2
    basin; a single local ascent from the midpoint can settle in the wrong
    one, so the all-reflect and all-transmit starts cover both.
    """
    best = None
    for beta0 in (SETTINGS.beta_init, 0.0, 1.0):
        result = _spca_loop(channels, scenario, scheme, beta0, weights, minmax)
        if best is None or _score(result, weights, minmax) > _score(best, weights, minmax):
            best = result
    return best


def spca_optimize(channels: ChannelSet, scenario: Scenario,
                  scheme: DetectorScheme) -> SpcaResult:
    """Energy-splitting sum-rate maximization (continuous coefficients)."""
    return _spca_multistart(channels, scenario, scheme)


def mode_switching_optimize(channels: ChannelSet, scenario: Scenario,
                            scheme: DetectorScheme) -> SpcaResult:
    """Binary (fully reflect / fully transmit) coefficients.

    Runs the continuous optimizer, then rounds the fractional coordinates in
    index order, each to the better of {0, 1} by exact sum-rate (ties go to
    1). Each rounding step can only improve on naive nearest rounding
    because both endpoints are compared against each other directly.

    The rates depend on `beta` only through the effective gains
    H1 = h_los + beta.h_reflect and H2 = (1 - beta).h_transmit. Moving
    coordinate i from b to 0 or to 1 adds -b or 1 - b times
    (h_reflect[i], -h_transmit[i]) to (H1, H2), so the rounding carries the
    two gains along and scores each candidate from them in O(1): O(N) in
    all, where a full sum-rate evaluation per candidate would cost O(N^2).
    """
    result = spca_optimize(channels, scenario, scheme)
    beta = result.beta.copy()
    h1, h2 = effective_channels(channels, beta)
    fractional = np.flatnonzero((beta > 0.0) & (beta < 1.0))
    for i, b, hr, ht in zip(fractional.tolist(), beta[fractional].tolist(),
                            channels.h_reflect[fractional].tolist(),
                            channels.h_transmit[fractional].tolist()):
        lo = (h1 - b * hr, h2 + b * ht)
        hi = (h1 + (1.0 - b) * hr, h2 - (1.0 - b) * ht)
        f0 = rates_from_gains(*lo, scenario, scheme).sum
        f1 = rates_from_gains(*hi, scenario, scheme).sum
        if f1 >= f0:
            beta[i], (h1, h2) = 1.0, hi
        else:
            beta[i], (h1, h2) = 0.0, lo
    rates = rate_pair(channels, beta, scenario, scheme)
    return SpcaResult(beta=beta, rates=rates, trace=result.trace,
                      converged=result.converged, iterations=result.iterations)


def time_sharing_optimize(channels: ChannelSet, scenario: Scenario,
                          scheme: DetectorScheme) -> TimeSharingResult:
    """Best alpha * R1 + (1 - alpha) * R2 over coefficients and alpha in [0, 1].

    For fixed coefficients the objective is linear in alpha, so the joint
    optimum sits at an alpha endpoint: it is the larger of the two
    single-user optima. Ties go to alpha = 1.
    """
    best_r1 = _spca_multistart(channels, scenario, scheme, weights=(1.0, 0.0))
    best_r2 = _spca_multistart(channels, scenario, scheme, weights=(0.0, 1.0))
    if best_r1.rates.r1 >= best_r2.rates.r2:
        win, alpha = best_r1, 1.0
    else:
        win, alpha = best_r2, 0.0
    return TimeSharingResult(rates=win.rates, alpha=alpha, beta=win.beta,
                             converged=best_r1.converged and best_r2.converged,
                             iterations=best_r1.iterations + best_r2.iterations)


def max_min_optimize(channels: ChannelSet, scenario: Scenario,
                     scheme: DetectorScheme) -> SpcaResult:
    """Maximize min(R1, R2) over the box (max-min fairness benchmark)."""
    return _spca_multistart(channels, scenario, scheme, minmax=True)
