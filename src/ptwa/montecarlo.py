"""Monte-Carlo construction of the collisional invariant from its probabilistic representation.

The operator L generates the SDE

    dtheta = kappa dt,
    dkappa = -lam (sin theta + kappa) dt + sqrt(2) alpha dB_t,

whose invariant measure is the equilibrium mu.  Exponential mixing gives the
representation psi(theta0, kappa0) = integral_0^inf E[sin theta_s] ds, which is
estimated by Euler-Maruyama ensembles with antithetic pairing over the noise
sign B -> -B.  Because (theta, kappa, B) -> (-theta, -kappa, -B) is an exact
pathwise symmetry of the dynamics, noise-sign pairing also makes the oddness
psi(-theta, -kappa) = -psi(theta, kappa) exact for the estimator.  This module
is the independent cross-check of the spectral solver.

Each antithetic pair owns one counter-based noise stream.  Pairs are simulated
CHUNK_PAIRS at a time as one state of 2 * chunk paths (+noise half, -noise
half), and each stream is drawn in blocks of NOISE_BLOCK steps, so memory is
O(chunk * block), not O(chunk * n_steps).  None of the blocking constants
changes a bit of the result.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .equilibrium import ModelParams, _is_integer, seeded_stream, theta_nodes, von_mises_pdf

__all__ = ["OracleConfig", "feynman_kac_psi", "mc_c2", "MCC2Result"]

#: antithetic pairs simulated per chunk (one Philox generator per pair)
CHUNK_PAIRS = 2048
#: steps of noise drawn per stream at a time; memory is ~ chunk * block doubles
NOISE_BLOCK = 512
#: streams drawn before one cache-sized transpose into the step-major block
ROW_TILE = 64


@dataclass(frozen=True)
class OracleConfig:
    """Ensemble configuration: model, time step, truncation horizon, path count, seed."""

    model: ModelParams
    dt: float
    t_final: float
    paths: int
    seed: int

    def __post_init__(self):
        lam = self.model.lam
        if not self.dt > 0 or self.dt > 0.01 * min(1.0, 1.0 / lam):
            raise ValueError(f"dt must satisfy 0 < dt <= 0.01*min(1, 1/lam), got {self.dt}")
        if not 10.0 / lam <= self.t_final < math.inf:
            raise ValueError(f"t_final must be finite and >= 10/lam for mixing, got {self.t_final}")
        if not (_is_integer(self.paths) and self.paths >= 2):
            raise ValueError(f"paths must be an integer >= 2 (one antithetic pair), got {self.paths!r}")
        seeded_stream(self.seed, 0)  # rejects a seed the Philox key cannot hold

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


def _integrate_sin(cfg: OracleConfig, theta0: float, kappa0: float, rngs) -> tuple:
    """Fused antithetic Euler-Maruyama over one chunk of noise streams.

    Path p < c = len(rngs) is driven by +xi drawn from rngs[p] and path c + p
    by -xi from the same draws.  The noise is drawn per stream in blocks of
    NOISE_BLOCK steps, so memory is O(c * NOISE_BLOCK), not O(c * n_steps).
    Returns (trapezoid integral of sin(theta_s), final sin(theta)), each of
    length 2c with the + half first.
    """
    lam = cfg.model.lam
    dt = cfg.dt
    n = cfg.n_steps
    scale = math.sqrt(2.0 * dt) * cfg.model.alpha
    c = len(rngs)
    block = min(NOISE_BLOCK, n)
    rows = np.empty((ROW_TILE, block))  # one contiguous row per stream of a tile
    xi = np.empty((block, c))  # the whole chunk's block, step-major and scaled
    theta = np.full(2 * c, theta0, dtype=float)
    kappa = np.full(2 * c, kappa0, dtype=float)
    s = np.sin(theta)  # shared between the drift and the running integral
    acc = 0.5 * s
    t = np.empty(2 * c)
    t_plus, t_minus = t[:c], t[c:]
    for start in range(0, n, block):
        b = min(block, n - start)
        for j in range(0, c, ROW_TILE):
            tile = rngs[j : j + ROW_TILE]
            for p, rng in enumerate(tile):
                rng.standard_normal(out=rows[p, :b])
            np.multiply(rows[: len(tile), :b].T, scale, out=xi[:b, j : j + len(tile)])
        for x in xi[:b]:
            np.multiply(kappa, dt, out=t)
            theta += t
            np.add(s, kappa, out=t)
            t *= -lam
            t *= dt
            t_plus += x
            t_minus -= x
            kappa += t
            np.sin(theta, out=s)
            acc += s
    acc -= 0.5 * s
    return acc * dt, s


def feynman_kac_psi(cfg: OracleConfig, theta0: float, kappa0: float, stream_offset: int = 0) -> dict:
    """Estimate psi(theta0, kappa0) = integral_0^t_final E[sin theta_s] ds.

    Antithetic pairs share a noise stream with flipped sign; by the exact
    mirror symmetry of the dynamics this also makes the oddness
    psi(-theta,-kappa) = -psi(theta,kappa) exact for the estimator.  Streams
    are keyed by (seed, stream_offset + pair index), so multiple probe points
    can be decorrelated via stream_offset.

    Returns dict(estimate=..., std_error=..., tail=E[sin theta at t_final]).
    Warns if the tail mean exceeds 3x its own standard error, signaling an
    insufficient horizon.  One pair (paths 2 or 3) has no spread: std_error is
    inf and the tail is not checked.
    """
    n_pairs = cfg.paths // 2
    values = np.empty(n_pairs)
    tails = np.empty(n_pairs)  # one pair-averaged tail per antithetic pair
    for done in range(0, n_pairs, CHUNK_PAIRS):
        chunk = min(CHUNK_PAIRS, n_pairs - done)
        rngs = [seeded_stream(cfg.seed, stream_offset + done + p) for p in range(chunk)]
        integral, tail = _integrate_sin(cfg, theta0, kappa0, rngs)
        values[done : done + chunk] = 0.5 * (integral[:chunk] + integral[chunk:])
        tails[done : done + chunk] = 0.5 * (tail[:chunk] + tail[chunk:])
    estimate = float(np.mean(values))
    tail_mean = float(np.mean(tails))
    if n_pairs == 1:
        return {"estimate": estimate, "std_error": float("inf"), "tail": tail_mean}
    std_error = float(np.std(values, ddof=1) / math.sqrt(n_pairs))
    tail_se = float(np.std(tails, ddof=1) / math.sqrt(n_pairs))
    if abs(tail_mean) > 3.0 * max(tail_se, 1e-300):
        warnings.warn(
            f"horizon t_final={cfg.t_final} may be too short: "
            f"|E[sin theta(t_final)]| = {abs(tail_mean):.3e} > 3 x {tail_se:.3e}",
            RuntimeWarning,
        )
    return {"estimate": estimate, "std_error": std_error, "tail": tail_mean}


@dataclass(frozen=True)
class MCC2Result:
    """Monte-Carlo convection coefficient and its ingredients."""

    c2: float
    std_error: float
    gamma1: float
    gamma1_std_error: float
    gamma2: float
    gamma2_std_error: float


def mc_c2(cfg: OracleConfig, n_grid_theta: int, n_grid_kappa: int) -> MCC2Result:
    """Convection coefficient c2 = <sin cos psi>_mu / <sin psi>_mu from Monte-Carlo psi.

    psi is estimated on a product grid: uniform periodic nodes in theta
    (trapezoid against the Von Mises weight) times Gauss-Hermite nodes in kappa
    (exact against the Gaussian weight); each grid point uses its own
    decorrelated path streams, with cfg.paths paths per point, and the rows where
    theta is a multiple of pi, so sin(theta) = 0, are not simulated.  Raises
    ValueError, before any path runs, unless both grid sizes are positive integers,
    or if n_grid_theta divides 4: every node is then a multiple of pi/2, where
    sin(theta) cos(theta) vanishes, so gamma2 and c2 would be round-off.
    """
    if not all(_is_integer(n) and n >= 1 for n in (n_grid_theta, n_grid_kappa)):
        raise ValueError(f"grid sizes must be positive integers, got {n_grid_theta}, {n_grid_kappa}")
    if 4 % n_grid_theta == 0:
        raise ValueError(f"n_grid_theta={n_grid_theta} puts every theta node where sin cos = 0")
    model = cfg.model
    th = theta_nodes(n_grid_theta)
    w_th = von_mises_pdf(model, th) * (2.0 * math.pi / n_grid_theta)
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_grid_kappa)
    ka = nodes * model.alpha / math.sqrt(model.lam)
    w_ka = weights / math.sqrt(2.0 * math.pi)

    g1 = g2 = 0.0
    a, b, se_psi = [], [], []  # per point: the weights of psi in g1 and g2, and psi's error
    for i in range(n_grid_theta):
        if 2 * i % n_grid_theta == 0:  # theta_i is a multiple of pi: psi weighs 0 in both sums
            continue
        for j in range(n_grid_kappa):
            point = i * n_grid_kappa + j
            res = feynman_kac_psi(cfg, th[i], ka[j], stream_offset=point * cfg.paths)
            a.append(w_th[i] * w_ka[j] * math.sin(th[i]))
            b.append(a[-1] * math.cos(th[i]))
            se_psi.append(res["std_error"])
            g1 += a[-1] * res["estimate"]
            g2 += b[-1] * res["estimate"]
    if g1 == 0.0:
        raise ZeroDivisionError("Monte-Carlo gamma1 vanished; cannot form c2")
    c2 = g2 / g1
    # delta method: g1 and g2 share every psi estimate, and dc2/dpsi_p = (b_p - c2 a_p) / g1
    a, b, se_psi = np.array(a), np.array(b), np.array(se_psi)
    return MCC2Result(
        c2=float(c2),
        std_error=float(np.linalg.norm((b - c2 * a) * se_psi) / abs(g1)),
        gamma1=float(g1),
        gamma1_std_error=float(np.linalg.norm(a * se_psi)),
        gamma2=float(g2),
        gamma2_std_error=float(np.linalg.norm(b * se_psi)),
    )
