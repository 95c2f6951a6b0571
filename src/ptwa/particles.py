"""Stochastic particle simulation of the curvature-controlled alignment model.

Each agent carries position, heading angle, and trajectory curvature.  The
curvature relaxes toward the target sin(theta_bar - theta) set by the mean
heading of neighbors within a perception radius (periodic minimum image), plus
Brownian forcing; the heading integrates the curvature and the position
integrates the heading.  Diagnostics track the empirical order parameter,
curvature variance, and the histogram of headings relative to the mean
direction against the closed-form equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import ModelParams, _is_integer, seeded_stream, wrap_angle

__all__ = [
    "Agents",
    "SimConfig",
    "SimStats",
    "step",
    "collect_stats",
    "initial_state",
    "run_simulation",
]

#: neighborhood flux below this magnitude counts as empty/cancelled
J_TOL = 1e-12
#: cells exceed the radius by this fraction of the box, above the round-off in
#: a cell index or a minimum-image distance; also keeps n_cells**2 within int64
CELL_SLACK = 1e-9
#: candidate pairs listed at once; bounds the pair pass's memory at any density.  Each of
#: a block's 8-byte pair arrays is 512 kB, near a 2 MB per-core L2 cache; 2**18 made a
#: step 1.4-1.5x slower at N = 5000 to 5e4 (5 agents per unit area, r = 1)
PAIR_BLOCK = 2**16
#: histogram bins for the relative-angle diagnostic
HIST_BINS = 36
#: stream index reserved for drawing the initial condition
INIT_STREAM = 2**62


@dataclass(frozen=True)
class Agents:
    """Column store of agent states: x shape (N, 2), theta and kappa shape (N,)."""

    x: np.ndarray
    theta: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        if self.x.shape != (len(self.theta), 2) or self.kappa.shape != self.theta.shape:
            raise ValueError("inconsistent agent array shapes")

    def __len__(self) -> int:
        return len(self.theta)


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; dt must satisfy dt <= 0.1/max(1, lam)."""

    n_agents: int
    box_size: float
    radius: float
    model: ModelParams
    dt: float
    seed: int
    include_self: bool = True

    def __post_init__(self):
        if not (_is_integer(self.n_agents) and self.n_agents >= 1):
            raise ValueError(f"n_agents must be an integer >= 1, got {self.n_agents!r}")
        if not (0 < self.box_size < math.inf and 0 < self.radius < math.inf):
            raise ValueError("box_size and radius must be positive and finite")
        if not 0 < self.dt <= 0.1 / max(1.0, self.model.lam):
            raise ValueError(f"dt must satisfy 0 < dt <= 0.1/max(1, lam), got {self.dt}")
        if not isinstance(self.include_self, bool):  # bool("false") and bool(1) are True
            raise ValueError(f"include_self must be true or false, got {self.include_self!r}")
        seeded_stream(self.seed, 0)  # rejects a seed the Philox key cannot hold

    @property
    def global_coupling(self) -> bool:
        """Radius covers the whole periodic box (max distance is L*sqrt(2)/2)."""
        return self.radius >= self.box_size * math.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class SimStats:
    """Empirical-measure diagnostics of one snapshot."""

    order_parameter: float
    mean_direction: float
    curvature_variance: float
    relative_angle_histogram: np.ndarray
    relative_angle_edges: np.ndarray


def _min_image(dx: np.ndarray, box: float) -> np.ndarray:
    return dx - box * np.round(dx / box)


def _neighbour_flux(x: np.ndarray, cos_t: np.ndarray, sin_t: np.ndarray, radius: float, box: float):
    """Sums of cos_t[j] and sin_t[j] over the agents j within radius of each agent i, i included.

    One pass over all pairs: the agents are binned into square cells wider than
    the radius by CELL_SLACK * box, so every neighbour of an agent lies in its
    own cell or one of the eight around it despite round-off in the cell index
    and the distance.  Below three cells per side some of the nine offsets
    coincide and are searched once; one cell per side is the all-pairs search.
    The agents are sorted by cell, stably, and each occupied cell looks up the
    range of sorted positions of each of its neighbour cells once.  An agent's
    candidates are its cell's ranges in sorted offset order, so by offset and
    then by agent index; they are listed with np.repeat, kept when their
    minimum-image distance is below the radius, and summed per agent in that
    order with bincount, for blocks of agents with about PAIR_BLOCK candidates
    at a time.  Memory is O(N + PAIR_BLOCK) at any radius.
    """
    n = len(x)
    n_cells = max(1, int(box / (radius + CELL_SLACK * box)))
    cell = np.floor(x / box * n_cells).astype(np.int64) % n_cells
    key = cell[:, 0] * n_cells + cell[:, 1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    # positions and headings in sorted order, as contiguous vectors
    px, py, pc, ps = x[order, 0], x[order, 1], cos_t[order], sin_t[order]
    # occupied cells: first sorted position, agent count, and each agent's cell rank
    first = np.flatnonzero(np.diff(key, prepend=-1))
    size = np.diff(first, append=n)
    rank = np.repeat(np.arange(len(first)), size)
    occupied = key[first]
    shift = np.array(sorted({(a % n_cells, b % n_cells) for a in (-1, 0, 1) for b in (-1, 0, 1)}))
    # one row per occupied cell, one column per cell offset
    cx, cy = occupied[:, None] // n_cells, occupied[:, None] % n_cells
    other = (cx + shift[:, 0]) % n_cells * n_cells + (cy + shift[:, 1]) % n_cells
    found = np.minimum(np.searchsorted(occupied, other), len(first) - 1)
    lo = first[found]
    count = np.where(occupied[found] == other, size[found], 0)
    per_agent = count.sum(axis=1)[rank]
    block = (np.cumsum(per_agent) - per_agent) // PAIR_BLOCK
    edges = np.concatenate([[0], np.flatnonzero(np.diff(block)) + 1, [n]])
    jx, jy = np.empty(n), np.empty(n)
    for a, b in zip(edges[:-1], edges[1:]):
        c = count[rank[a:b]].ravel()
        j = np.arange(c.sum()) + np.repeat(lo[rank[a:b]].ravel() - (np.cumsum(c) - c), c)
        reps = per_agent[a:b]
        dx = _min_image(px[j] - np.repeat(px[a:b], reps), box)
        dy = _min_image(py[j] - np.repeat(py[a:b], reps), box)
        keep = np.flatnonzero(dx * dx + dy * dy < radius**2)
        del dx, dy  # two fewer pair-sized arrays alive while the next block is listed
        i, j = np.repeat(np.arange(b - a), reps)[keep], j[keep]
        jx[order[a:b]] = np.bincount(i, pc[j], b - a)
        jy[order[a:b]] = np.bincount(i, ps[j], b - a)
    return jx, jy


def _kappa_bar_all(agents: Agents, cfg: SimConfig) -> np.ndarray:
    """Synchronous target curvatures from the pre-step configuration.

    kappa_bar_i = tau(theta_i) x J_i/|J_i| = sin(theta_bar_i - theta_i), where
    J_i sums tau(theta_j) over the neighbours of agent i.  Empty or exactly
    cancelled neighborhoods (reachable only with include_self=False) fall back
    to kappa_bar = 0.
    """
    n = len(agents)
    cos_t, sin_t = np.cos(agents.theta), np.sin(agents.theta)
    if cfg.global_coupling:
        jx = np.full(n, np.sum(cos_t))
        jy = np.full(n, np.sum(sin_t))
    else:
        jx, jy = _neighbour_flux(agents.x, cos_t, sin_t, cfg.radius, cfg.box_size)
    if not cfg.include_self:
        jx -= cos_t
        jy -= sin_t
    norm = np.hypot(jx, jy)
    # kappa_bar = tau(theta) x J/|J| = (cos*Jy - sin*Jx)/|J|
    with np.errstate(invalid="ignore", divide="ignore"):
        kb = (cos_t * jy - sin_t * jx) / norm
    return np.where(norm > J_TOL, kb, 0.0)


def step(agents: Agents, cfg: SimConfig, step_index: int = 0) -> Agents:
    """One synchronous Euler-Maruyama step.

    Update order within the step: curvature first (relaxation toward the
    pre-step targets plus noise), then heading integrates the new curvature,
    then position integrates the new heading.  Noise is drawn from a
    counter-based stream keyed by (seed, step_index), so trajectories are
    bit-reproducible independent of scheduling.
    """
    lam, alpha = cfg.model.lam, cfg.model.alpha
    kb = _kappa_bar_all(agents, cfg)
    xi = seeded_stream(cfg.seed, step_index).standard_normal(len(agents))
    kappa = agents.kappa + lam * (kb - agents.kappa) * cfg.dt + math.sqrt(2.0 * cfg.dt) * alpha * xi
    theta = wrap_angle(agents.theta + kappa * cfg.dt)
    tau = np.column_stack([np.cos(theta), np.sin(theta)])
    x = np.mod(agents.x + tau * cfg.dt, cfg.box_size)
    x[x >= cfg.box_size] = 0.0  # np.mod(-tiny, box) rounds up to box itself
    return Agents(x=x, theta=theta, kappa=kappa)


def collect_stats(agents: Agents) -> SimStats:
    """Order parameter, mean direction, curvature variance, and the relative-angle histogram."""
    jx = float(np.mean(np.cos(agents.theta)))
    jy = float(np.mean(np.sin(agents.theta)))
    mean_dir = math.atan2(jy, jx)
    rel = wrap_angle(agents.theta - mean_dir)
    angle_hist, angle_edges = np.histogram(rel, bins=HIST_BINS, range=(-math.pi, math.pi))
    return SimStats(
        order_parameter=math.hypot(jx, jy),
        mean_direction=mean_dir,
        curvature_variance=float(np.var(agents.kappa)),
        relative_angle_histogram=angle_hist,
        relative_angle_edges=angle_edges,
    )


def initial_state(cfg: SimConfig) -> Agents:
    """Uniform positions and headings, stationary Gaussian curvatures, from a reserved stream."""
    rng = seeded_stream(cfg.seed, INIT_STREAM)
    n = cfg.n_agents
    x = rng.uniform(0.0, cfg.box_size, size=(n, 2))
    theta = rng.uniform(-math.pi, math.pi, size=n)
    kappa = rng.standard_normal(n) * math.sqrt(cfg.model.kappa_variance)
    return Agents(x=x, theta=wrap_angle(theta), kappa=kappa)


def run_simulation(cfg: SimConfig, t_final: float, every: int = 100):
    """Run from the seeded initial condition to t_final, yielding snapshots.

    Yields (t, Agents) after every `every`-th step and after the last step,
    with t = (step_index + 1) * dt.  Raises ValueError at the call unless
    t_final is finite and rounds to at least one step and every is an integer >= 1.
    """
    n_steps = t_final / cfg.dt
    if not (math.isfinite(n_steps) and round(n_steps) >= 1 and _is_integer(every) and every >= 1):
        raise ValueError(f"need a finite t_final > dt/2 and an integer every >= 1, got {t_final}, {every}")
    return _snapshots(cfg, round(n_steps), every)


def _snapshots(cfg: SimConfig, n_steps: int, every: int):
    agents = initial_state(cfg)
    for s in range(n_steps):
        agents = step(agents, cfg, step_index=s)
        if (s + 1) % every == 0 or s + 1 == n_steps:
            yield (s + 1) * cfg.dt, agents
