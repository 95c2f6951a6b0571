"""Interacting-particle scheme: neighborhoods, stepping, statistics."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptwa import particles
from ptwa.equilibrium import ModelParams
from ptwa.particles import (
    CELL_SLACK,
    J_TOL,
    Agents,
    SimConfig,
    _kappa_bar_all,
    _min_image,
    _neighbour_flux,
    collect_stats,
    initial_state,
    run_simulation,
    step,
)

UNIT = ModelParams(1.0, 1.0)


def config(**kw):
    base = dict(
        n_agents=10, box_size=10.0, radius=2.0, model=UNIT, dt=0.05, seed=1, include_self=True
    )
    base.update(kw)
    return SimConfig(**base)


def make_agents(x, theta, kappa):
    return Agents(
        x=np.asarray(x, dtype=float),
        theta=np.asarray(theta, dtype=float),
        kappa=np.asarray(kappa, dtype=float),
    )


def neighbor_indices_brute(x: np.ndarray, i: int, radius: float, box: float) -> np.ndarray:
    """All-pairs neighbor search with the periodic minimum image; O(N) per query."""
    d = _min_image(x - x[i], box)
    return np.flatnonzero(np.einsum("ij,ij->i", d, d) < radius**2)


def brute_adjacency(x, radius, box):
    """a[i, j] = 1 when agent j is a neighbour of agent i (i included), by the oracle."""
    a = np.zeros((len(x), len(x)))
    for i in range(len(x)):
        a[i, neighbor_indices_brute(x, i, radius, box)] = 1.0
    return a


def pair_pass_adjacency(x, radius, box):
    """The same matrix read off the pair pass: column k sums the indicator of agent k."""
    zeros = np.zeros(len(x))
    return np.column_stack([_neighbour_flux(x, e, zeros, radius, box)[0] for e in np.eye(len(x))])


def loop_flux(x, cos_t, sin_t, radius, box):
    """Per-agent sums of cos_t[j] and sin_t[j], added one at a time in the pair pass's order.

    For each agent: the cell offsets in sorted (a mod n, b mod n) order, then
    the agents of that cell by index, each added if within radius.
    """
    n_cells = cells_per_side(box, radius)
    cell = np.floor(x / box * n_cells).astype(np.int64) % n_cells
    offsets = sorted({(a % n_cells, b % n_cells) for a in (-1, 0, 1) for b in (-1, 0, 1)})
    jx, jy = np.zeros(len(x)), np.zeros(len(x))
    for i in range(len(x)):
        sx = sy = 0.0
        for a, b in offsets:
            target = (cell[i] + (a, b)) % n_cells
            for j in np.flatnonzero(np.all(cell == target, axis=1)):
                d = _min_image(x[j] - x[i], box)
                if d[0] * d[0] + d[1] * d[1] < radius**2:
                    sx += cos_t[j]
                    sy += sin_t[j]
        jx[i], jy[i] = sx, sy
    return jx, jy


def loop_kappa_bar(agents, cfg):
    """Per-agent reference loop over the oracle's neighbour sets.

    Returns kappa_bar_i = sin(atan2(J_i) - theta_i) (0 where |J_i| <= J_TOL),
    the neighbour counts and |J_i|.
    """
    n = len(agents)
    kb, counts, jnorm = np.zeros(n), np.zeros(n), np.zeros(n)
    for i in range(n):
        idx = neighbor_indices_brute(agents.x, i, cfg.radius, cfg.box_size)
        if not cfg.include_self:
            idx = idx[idx != i]
        jx = float(np.sum(np.cos(agents.theta[idx])))
        jy = float(np.sum(np.sin(agents.theta[idx])))
        counts[i], jnorm[i] = len(idx), math.hypot(jx, jy)
        if jnorm[i] > J_TOL:
            kb[i] = math.sin(math.atan2(jy, jx) - agents.theta[i])
    return kb, counts, jnorm


def cells_per_side(box, radius):
    return max(1, int(box / (radius + CELL_SLACK * box)))


def assert_kappa_bar_matches_loop(agents, cfg):
    """kappa_bar against the loop, to round-off that grows as count/|J| when headings cancel."""
    kb = _kappa_bar_all(agents, cfg)
    ref, counts, jnorm = loop_kappa_bar(agents, cfg)
    assert np.all(kb[counts == 0] == 0.0)
    clear = jnorm > 1e-9
    tol = 1e-12 * np.maximum(1.0, counts[clear] / jnorm[clear])
    assert np.all(np.abs(kb[clear] - ref[clear]) <= tol)


@st.composite
def swarms(draw):
    """Agents on cell edges, at 0 and at nextafter(box, 0), and pairs one radius +- 3 ulps apart.

    A box/radius that is an integer in decimal but not in binary (box 1 or 3,
    ten cells) is where round-off in the cell index can split a pair across
    cells two apart.
    """
    box = draw(st.sampled_from([1.0, 3.0, 10.0]))
    radius = draw(
        st.one_of(
            # 1, 2, 3, 4 and 9-10 cells per side, box/radius exact or not
            st.sampled_from([box / 1.5, box / 2.5, box / 3.5, box / 4.5, box / 4, box / 10]),
            st.sampled_from([np.nextafter(box / 2, 0.0), box / 2, np.nextafter(box / 2, box)]),
            st.floats(box / 12, 0.75 * box),
        )
    )
    # edges of the cells the pass uses and of the box/radius grid they widen
    grids = {cells_per_side(box, radius), max(1, int(box / radius))}
    edges = sorted({k * box / n for n in grids for k in range(n)})
    below = [np.nextafter(e, 0.0) for e in edges[1:]] + [np.nextafter(box, 0.0)]
    special = st.sampled_from(edges + below)
    coord = st.one_of(special, st.floats(0.0, box, exclude_max=True))
    x = draw(st.lists(st.lists(coord, min_size=2, max_size=2), min_size=1, max_size=16))
    pairs = st.tuples(
        special, coord, st.integers(0, 1), st.sampled_from([-1, 1]), st.integers(-3, 3)
    )
    for edge, other, axis, sign, ulps in draw(st.lists(pairs, max_size=8)):
        partner = float(np.mod(edge + sign * (radius + ulps * np.spacing(radius)), box))
        partner = 0.0 if partner >= box else partner
        x += [[edge, other], [partner, other]] if axis == 0 else [[other, edge], [other, partner]]
    heading = st.one_of(st.sampled_from([0.0, math.pi, math.pi / 2]), st.floats(-math.pi, math.pi))
    theta = draw(st.lists(heading, min_size=len(x), max_size=len(x)))
    return np.array(x), np.array(theta), box, radius


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            config(n_agents=0)
        with pytest.raises(ValueError):
            config(dt=0.5)
        with pytest.raises(ValueError):
            config(radius=-1.0)
        with pytest.raises(ValueError, match="finite"):
            config(box_size=math.inf)
        with pytest.raises(ValueError, match="finite"):
            config(radius=math.inf)
        for seed in (-1, 2**64, 1.5):  # the Philox key is unsigned 64-bit
            with pytest.raises(ValueError, match="seed"):
                config(seed=seed)
        assert config(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("n_agents", [2.5, 10.0, True])
    def test_rejects_an_agent_count_that_is_not_an_integer(self, n_agents):
        with pytest.raises(ValueError, match="integer"):
            config(n_agents=n_agents)

    @pytest.mark.parametrize("include_self", ["false", None, 0, 1])
    def test_include_self_must_be_a_bool(self, include_self):
        # bool() would run "false" and 1 with the agent itself counted, None and 0 without
        with pytest.raises(ValueError, match="include_self"):
            config(include_self=include_self)

    def test_numpy_integer_agent_count(self):
        cfg = config(n_agents=np.int64(12))
        expected = initial_state(config(n_agents=12))
        assert np.array_equal(initial_state(cfg).x, expected.x)

    def test_global_coupling_threshold(self):
        assert config(radius=10.0 * math.sqrt(2) / 2).global_coupling
        assert not config(radius=4.0).global_coupling


class TestNeighborSearch:
    def test_periodic_wraparound(self):
        x = np.array([[0.5, 5.0], [9.5, 5.0], [5.0, 5.0]])
        idx = neighbor_indices_brute(x, 0, radius=2.0, box=10.0)
        assert set(idx) == {0, 1}  # wraps across the x = 0 face
        assert np.array_equal(pair_pass_adjacency(x, 2.0, 10.0), brute_adjacency(x, 2.0, 10.0))

    def test_cell_list_matches_brute_force(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0.0, 10.0, size=(200, 2))
        assert cells_per_side(10.0, 1.7) == 5
        assert np.array_equal(pair_pass_adjacency(x, 1.7, 10.0), brute_adjacency(x, 1.7, 10.0))

    def test_every_cell_count_matches_the_loop(self):
        rng = np.random.default_rng(5)
        n_cells = set()
        for radius in (6.0, 4.0, 3.0, 2.4, 1.0, 0.5):
            n_cells.add(cells_per_side(10.0, radius))
            x = rng.uniform(0.0, 10.0, size=(150, 2))
            theta = rng.uniform(-math.pi, math.pi, 150)
            agents = make_agents(x, theta, np.zeros(150))
            assert np.array_equal(
                pair_pass_adjacency(x, radius, 10.0), brute_adjacency(x, radius, 10.0)
            )
            for include_self in (True, False):
                assert_kappa_bar_matches_loop(
                    agents, config(n_agents=150, radius=radius, include_self=include_self)
                )
        assert n_cells == {1, 2, 3, 4, 9, 19}

    def test_pairs_one_radius_from_cell_edges(self):
        # every edge k*box/n of a box/radius = n grid, and the float below it,
        # paired with points one radius +- 3 ulps away; at box 1, radius 0.1
        # binning into 10 cells would put the pair (0.7999999999999999,
        # 0.8999999999999999) in cells 7 and 9
        for box, n in [(1.0, 10), (3.0, 10), (10.0, 10), (7.0, 4), (1.0, 3)]:
            radius = box / n
            edges = np.arange(n) * box / n
            below = np.nextafter(np.append(edges[1:], box), 0.0)
            anchors = np.concatenate([edges, below])
            steps = radius + np.arange(-3, 4) * np.spacing(radius)
            along = np.mod(anchors[:, None] + np.concatenate([steps, -steps]), box).ravel()
            along = np.concatenate([anchors, np.where(along >= box, 0.0, along)])
            row = np.full(len(along), 0.5 * box)
            x = np.concatenate([np.column_stack([along, row]), np.column_stack([row, along])])
            counts = _neighbour_flux(x, np.ones(len(x)), np.zeros(len(x)), radius, box)[0]
            ref = [len(neighbor_indices_brute(x, i, radius, box)) for i in range(len(x))]
            assert counts.tolist() == ref, (box, n)

    def test_pair_blocks_change_no_bit(self, monkeypatch):
        # each agent's candidates fall in one block, so J does not depend on the block size
        rng = np.random.default_rng(8)
        x = rng.uniform(0.0, 10.0, size=(300, 2))
        theta = rng.uniform(-math.pi, math.pi, 300)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        for radius in (6.0, 1.0):
            whole = _neighbour_flux(x, cos_t, sin_t, radius, 10.0)
            with monkeypatch.context() as m:
                m.setattr(particles, "PAIR_BLOCK", 7)
                split = _neighbour_flux(x, cos_t, sin_t, radius, 10.0)
                assert np.array_equal(
                    pair_pass_adjacency(x[:60], radius, 10.0), brute_adjacency(x[:60], radius, 10.0)
                )
            assert np.array_equal(whole[0], split[0]) and np.array_equal(whole[1], split[1])

    def test_summation_order_is_the_stated_one(self, monkeypatch):
        # summands spread over 16 decades, so adding them in another order changes the bits
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 10.0, size=(150, 2))
        cos_t, sin_t = rng.standard_normal((2, 150)) * 10.0 ** rng.integers(-8, 8, (2, 150))
        n_cells = set()
        for radius in (6.0, 4.0, 3.0, 2.4, 1.05):
            n_cells.add(cells_per_side(10.0, radius))
            ref = loop_flux(x, cos_t, sin_t, radius, 10.0)
            for block in (particles.PAIR_BLOCK, 7):
                with monkeypatch.context() as m:
                    m.setattr(particles, "PAIR_BLOCK", block)
                    jx, jy = _neighbour_flux(x, cos_t, sin_t, radius, 10.0)
                assert np.array_equal(jx, ref[0]) and np.array_equal(jy, ref[1]), (radius, block)
        assert n_cells == {1, 2, 3, 4, 9}

    def test_tiny_radius_needs_memory_linear_in_agents(self):
        # about 1e7 cells per side: a table over all n_cells**2 cells would need 8e14 B
        box, radius = 10.0, 1e-6
        x = np.random.default_rng(12).uniform(0.0, box, size=(200, 2))
        x[1] = x[0] + [5e-7, 0.0]
        x[2:4] = [[box - 3e-7, 5.0], [2e-7, 5.0]]  # a pair across the periodic face
        assert np.array_equal(pair_pass_adjacency(x, radius, box), brute_adjacency(x, radius, box))
        tracemalloc.start()
        try:
            _neighbour_flux(x, np.ones(200), np.zeros(200), radius, box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 < cells_per_side(box, radius) ** 2 * 8

    @given(swarms())
    @settings(max_examples=150, deadline=None)
    def test_pair_pass_matches_brute_oracle(self, swarm):
        x, theta, box, radius = swarm
        adjacency = brute_adjacency(x, radius, box)
        assert np.array_equal(pair_pass_adjacency(x, radius, box), adjacency)
        jx, jy = _neighbour_flux(x, np.cos(theta), np.sin(theta), radius, box)
        assert np.allclose(jx, adjacency @ np.cos(theta), rtol=0.0, atol=1e-12)
        assert np.allclose(jy, adjacency @ np.sin(theta), rtol=0.0, atol=1e-12)
        agents = make_agents(x, theta, np.zeros(len(x)))
        for include_self in (True, False):
            cfg = config(n_agents=len(x), box_size=box, radius=radius, include_self=include_self)
            assert_kappa_bar_matches_loop(agents, cfg)

    def test_single_agent_mean_direction(self):
        agents = make_agents([[1.0, 1.0]], [0.8], [0.0])
        jx, jy = _neighbour_flux(agents.x, np.cos(agents.theta), np.sin(agents.theta), 2.0, 10.0)
        assert math.atan2(jy[0], jx[0]) == pytest.approx(0.8)
        # aligned with itself, or alone: no turning either way
        assert _kappa_bar_all(agents, config(n_agents=1)).tolist() == [0.0]
        assert _kappa_bar_all(agents, config(n_agents=1, include_self=False)).tolist() == [0.0]

    def test_exact_cancellation_is_none(self):
        # agent 0 sees only the two opposing neighbors, whose flux cancels
        agents = make_agents(
            [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]], [0.8, 0.0, math.pi], [0.0, 0.0, 0.0]
        )
        cfg = config(n_agents=3, include_self=False)
        kb = _kappa_bar_all(agents, cfg)
        assert kb[0] == 0.0
        assert kb[1:] == pytest.approx(loop_kappa_bar(agents, cfg)[0][1:], abs=1e-12)


class TestTargetCurvature:
    def test_values(self):
        # two co-located agents that see only each other: kappa_bar = sin(theta_other - theta)
        def pair(theta_i, theta_j):
            agents = make_agents([[5.0, 5.0], [5.0, 5.0]], [theta_i, theta_j], [0.0, 0.0])
            return _kappa_bar_all(agents, config(n_agents=2, include_self=False))[0]

        assert pair(0.7, 0.7) == pytest.approx(0.0)
        assert pair(0.0, math.pi / 2) == pytest.approx(1.0)
        assert pair(math.pi / 2, 0.0) == pytest.approx(-1.0)


class TestStep:
    def test_single_agent_noiseless_relaxation(self):
        cfg = config(n_agents=1, model=ModelParams(1.0, 1e-12))
        agents = make_agents([[5.0, 5.0]], [0.3], [2.0])
        for s in range(200):
            agents = step(agents, cfg, step_index=s)
        # kappa_bar = 0 for a self-aligned singleton, so kappa decays geometrically
        # by (1 - lam*dt) per step
        assert agents.kappa[0] == pytest.approx(2.0 * (1.0 - cfg.dt) ** 200, rel=1e-6)

    def test_aligned_pair_stays_aligned(self):
        cfg = config(n_agents=2, model=ModelParams(1.0, 1e-15), radius=20.0)
        agents = make_agents([[2.0, 2.0], [3.0, 2.0]], [0.9, 0.9], [0.0, 0.0])
        for s in range(50):
            agents = step(agents, cfg, step_index=s)
        assert agents.theta == pytest.approx([0.9, 0.9], abs=1e-9)
        assert agents.kappa == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_positions_stay_in_box(self):
        cfg = config(n_agents=50, radius=3.0)
        agents = initial_state(cfg)
        for s in range(20):
            agents = step(agents, cfg, step_index=s)
        assert np.all(agents.x >= 0.0) and np.all(agents.x < cfg.box_size)
        assert len(agents) == 50

    def test_determinism(self):
        cfg = config(n_agents=30)
        a = initial_state(cfg)
        b = initial_state(cfg)
        for s in range(10):
            a = step(a, cfg, step_index=s)
            b = step(b, cfg, step_index=s)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.kappa, b.kappa)

    @pytest.mark.parametrize("step_index", [-1, 2**64])
    def test_stream_outside_the_philox_key_raises(self, step_index):
        cfg = config(n_agents=5)
        with pytest.raises(ValueError, match="Philox key"):
            step(initial_state(cfg), cfg, step_index=step_index)

    def test_global_coupling_matches_local_path(self):
        # with radius covering the box, the closed-form global branch must equal
        # the per-agent loop, and the pair pass must find every pair
        theta = np.random.default_rng(3).uniform(-math.pi, math.pi, 12)
        agents = make_agents(
            np.random.default_rng(4).uniform(0, 10, (12, 2)), theta, np.zeros(12)
        )
        for include_self in (True, False):
            cfg_global = config(n_agents=12, radius=10.0, include_self=include_self)
            assert cfg_global.global_coupling
            kb_ref = loop_kappa_bar(agents, cfg_global)[0]
            assert np.allclose(_kappa_bar_all(agents, cfg_global), kb_ref, atol=1e-12)
        jx, jy = _neighbour_flux(agents.x, np.cos(theta), np.sin(theta), 10.0, 10.0)
        assert np.allclose(jx, np.sum(np.cos(theta)), rtol=0.0, atol=1e-12)
        assert np.allclose(jy, np.sum(np.sin(theta)), rtol=0.0, atol=1e-12)

    def test_position_never_lands_on_the_box_edge(self):
        # x + dt*cos(pi) is -6.9e-18 here, which np.mod rounds up to the box size
        cfg = config(n_agents=1, model=ModelParams(1.0, 1e-300))
        agents = make_agents([[np.nextafter(0.05, 0.0), 5.0]], [math.pi], [0.0])
        x = step(agents, cfg).x
        assert x[0, 0] == 0.0
        assert np.all((x >= 0.0) & (x < cfg.box_size))

    def test_local_radius_run_is_bitwise_deterministic(self):
        cfg = config(n_agents=500, radius=1.0)
        assert not cfg.global_coupling
        snapshots_a = list(run_simulation(cfg, t_final=20 * cfg.dt, every=5))
        snapshots_b = list(run_simulation(cfg, t_final=20 * cfg.dt, every=5))
        a, b = snapshots_a[-1][1], snapshots_b[-1][1]
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.kappa, b.kappa)
        order_a = [collect_stats(s).order_parameter for _, s in snapshots_a]
        assert order_a == [collect_stats(s).order_parameter for _, s in snapshots_b]


class TestAgents:
    @pytest.mark.parametrize(
        "x, theta, kappa",
        [(np.zeros((3, 2)), np.zeros(3), np.zeros(2)), (np.zeros((3, 3)), np.zeros(3), np.zeros(3)),
         (np.zeros((2, 2)), np.zeros(3), np.zeros(3))],
        ids=["kappa", "x columns", "x rows"],
    )
    def test_rejects_inconsistent_shapes(self, x, theta, kappa):
        with pytest.raises(ValueError, match="inconsistent agent array shapes"):
            Agents(x=x, theta=theta, kappa=kappa)


class TestCollectStats:
    def test_perfect_alignment(self):
        agents = make_agents([[1, 1], [2, 2], [3, 3]], [0.4, 0.4, 0.4], [0, 0, 0])
        s = collect_stats(agents)
        assert s.order_parameter == pytest.approx(1.0)
        assert s.mean_direction == pytest.approx(0.4)

    def test_exact_cancellation(self):
        agents = make_agents(
            np.zeros((4, 2)), [0.0, math.pi / 2, math.pi, 3 * math.pi / 2], np.zeros(4)
        )
        assert collect_stats(agents).order_parameter == pytest.approx(0.0, abs=1e-15)

    def test_histograms_shape(self):
        agents = initial_state(config(n_agents=100))
        s = collect_stats(agents)
        assert s.relative_angle_histogram.sum() == 100
        assert len(s.relative_angle_edges) == len(s.relative_angle_histogram) + 1


class TestRunSimulation:
    def test_single_agent_order_parameter(self):
        cfg = config(n_agents=1)
        history = [(t, collect_stats(a)) for t, a in run_simulation(cfg, t_final=1.0, every=5)]
        assert all(s.order_parameter == pytest.approx(1.0) for _, s in history)

    def test_history_cadence_and_callback(self):
        cfg = config(n_agents=5)
        # 20 steps of dt = 0.05: a snapshot after steps 7 and 14, and after the last step
        snapshots = list(run_simulation(cfg, t_final=1.0, every=7))
        assert [t for t, _ in snapshots] == [7 * cfg.dt, 14 * cfg.dt, 20 * cfg.dt]
        numpy_every = run_simulation(cfg, t_final=1.0, every=np.int64(7))
        assert [t for t, _ in numpy_every] == [t for t, _ in snapshots]
        agents = initial_state(cfg)
        for s in range(20):
            agents = step(agents, cfg, step_index=s)
        assert np.array_equal(snapshots[-1][1].theta, agents.theta)
        assert snapshots[-1][0] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "t_final, every", [(1.0, 0), (1.0, -3), (0.01, 5), (math.inf, 5), (1.0, 1.5)]
    )
    def test_bad_run_raises_at_the_call(self, t_final, every, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("ran before the arguments were checked")

        monkeypatch.setattr(particles, "initial_state", fail)
        monkeypatch.setattr(particles, "step", fail)
        cfg = config(n_agents=5)  # dt = 0.05, so t_final = 0.01 rounds to 0 steps
        with pytest.raises(ValueError, match="every"):
            run_simulation(cfg, t_final=t_final, every=every)

    def test_short_equilibration_smoke(self):
        # global coupling drives curvature variance toward alpha^2/lambda
        cfg = config(n_agents=400, radius=10.0, dt=0.05, seed=7)
        history = [(t, collect_stats(a)) for t, a in run_simulation(cfg, t_final=30.0, every=100)]
        late = [s.curvature_variance for _, s in history[len(history) // 2 :]]
        assert np.mean(late) == pytest.approx(1.0, rel=0.2)
