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
Each u_k depends on beta only through the effective gains H1 = h_los +
beta.h_reflect and H2 = sum(h_transmit) - beta.h_transmit, so an objective
F of the u_k has grad F = (dF/dH1) * h_reflect - (dF/dH2) * h_transmit: an
evaluation is two dot products, float arithmetic and one N-vector combine.

Every solver runs with one fixed set of settings, `SETTINGS`; none takes
settings as an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    iterations: int


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
        self.ht_sum = float(self.ht.sum())
        self.scheme = scheme
        self.weights = weights
        self.n = channels.element_count

    def gains(self, beta: np.ndarray) -> tuple[float, float]:
        h1 = self.h_los + float(beta @ self.hr)
        h2 = self.ht_sum - float(beta @ self.ht)
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

    def user_values(self, beta: np.ndarray, theta: np.ndarray):
        """Per user k, (value, dvalue/dg1, dvalue/dg2) of 0.5 * log2(1 + c * u_k),
        where g_k = rho * p_k * H_k; all three are 0 where u_k <= 0."""
        h1, h2 = self.gains(beta)
        g1 = self.a1 * h1
        g2 = self.a2 * h2
        t1, t2 = theta.tolist()
        if self.scheme is DetectorScheme.SIC:  # A1 = g1 / sigma, V1^2 = 1
            u1 = 2.0 * t1 * (g1 / self.sigma) - t1 * t1
            du1 = (2.0 * t1 / self.sigma, 0.0)
        else:  # A1 = g1, V1^2 = g2^2 + sigma^2
            u1 = 2.0 * t1 * g1 - t1 * t1 * (g2 * g2 + self.sigma2)
            du1 = (2.0 * t1, -2.0 * t1 * t1 * g2)
        # both schemes: A2 = g2, V2^2 = g1^2 + sigma^2
        u2 = 2.0 * t2 * g2 - t2 * t2 * (g1 * g1 + self.sigma2)
        du2 = (-2.0 * t2 * t2 * g1, 2.0 * t2)
        return _rate_and_slopes(u1, du1), _rate_and_slopes(u2, du2)

    def value_grad(self, beta: np.ndarray, theta: np.ndarray) -> tuple[float, np.ndarray]:
        (f1, x1, y1), (f2, x2, y2) = self.user_values(beta, theta)
        w1, w2 = self.weights
        x, y = w1 * x1 + w2 * x2, w1 * y1 + w2 * y2
        return w1 * f1 + w2 * f2, self.a1 * x * self.hr - self.a2 * y * self.ht

    def min_value_grad(self, beta: np.ndarray, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Pointwise-min objective and a subgradient (for max-min fairness)."""
        (f1, x1, y1), (f2, x2, y2) = self.user_values(beta, theta)
        if abs(f1 - f2) < 1e-15:
            f, x, y = f1, 0.5 * (x1 + x2), 0.5 * (y1 + y2)
        else:
            f, x, y = (f1, x1, y1) if f1 <= f2 else (f2, x2, y2)
        return f, self.a1 * x * self.hr - self.a2 * y * self.ht


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


def _rate_and_slopes(u: float, du: tuple[float, float]) -> tuple[float, float, float]:
    """0.5 * log2(1 + c * u) and its derivatives given du = (du/dg1, du/dg2);
    zeros where the eliminated SINR bound u is clamped at 0."""
    if u <= 0.0:
        return 0.0, 0.0, 0.0
    drate_du = 0.5 * RATE_SINR_SCALE / (_LN2 * (1.0 + RATE_SINR_SCALE * u))
    return 0.5 * math.log2(1.0 + RATE_SINR_SCALE * u), drate_du * du[0], drate_du * du[1]


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
    return np.minimum(np.maximum(beta, 0.0), 1.0)


def _pga(fg, theta: np.ndarray, beta0: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Projected gradient ascent of `fg(beta, theta)` -> (value, gradient)
    over the box with BB step + Armijo backtracking.

    The spectral step keeps the iteration scale-invariant; the very first
    step falls back to `SETTINGS.step_init`. Returns (beta, its value,
    converged).
    """
    beta = _project(np.asarray(beta0, dtype=float))
    f, g = fg(beta, theta)
    if beta.size == 0:
        return beta, f, True
    step = SETTINGS.step_init
    prev_beta = None
    prev_g = None
    for _ in range(SETTINGS.max_inner_iterations):
        pg = _project(beta + g) - beta
        if np.abs(pg).max() < SETTINGS.inner_tolerance:
            return beta, f, True
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
            if np.abs(d).max() == 0.0:
                break
            fc, gc = fg(cand, theta)
            if fc >= f + SETTINGS.armijo_slope * float(g @ d):
                accepted = True
                break
            t *= SETTINGS.armijo_shrink
        if not accepted:
            # no ascent step found: treat as converged at a stationary point
            return beta, f, True
        prev_beta, prev_g = beta, g
        beta, f, g = cand, fc, gc
    return beta, f, False


def _start(prob: _ReducedProblem, value: float) -> np.ndarray:
    """A start vector: `value` at every element but the dead ones (both
    gains 0), which get 1. A dead element's gradient is 0, so it keeps its
    start value; 1 is the value mode switching gives it."""
    return np.where((prob.hr == 0.0) & (prob.ht == 0.0), 1.0, value)


def solve_subproblem(theta, channels: ChannelSet, scenario: Scenario,
                     scheme: DetectorScheme):
    """Maximize the reduced sum-rate objective over the box for fixed theta,
    from the midpoint start `SETTINGS.beta_init` (1 at dead elements).

    Returns (beta, inner_converged).
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(theta <= 0.0):
        raise ValueError("surrogate parameters must be positive")
    prob = _ReducedProblem(channels, scenario, scheme)
    beta, _, converged = _pga(prob.value_grad, theta, _start(prob, SETTINGS.beta_init))
    return beta, converged


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
    beta = _start(prob, beta0)
    trace: list[TraceEntry] = []
    prev = None  # (beta, u, v) of the previous outer iteration
    converged = False
    inner_ok = True
    iterations = 0
    for _m in range(SETTINGS.max_outer_iterations):
        beta, value, ok = _pga(fg, theta, beta)
        inner_ok = inner_ok and ok
        iterations += 1
        u, v = _recover_auxiliaries(prob, beta)
        trace.append(TraceEntry(objective=value,
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
    starts (each 1 at dead elements) and keep the best exact objective.

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
