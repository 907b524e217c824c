import math

import numpy as np
import pytest

import snaflow.cocycle as cocycle
from snaflow.cocycle import FourierCocycle, tabulate
from snaflow.fields import BumpProfile, Cos11, LogisticHarvest, RadialLogistic
from snaflow.flow import FlowEscape, IntegratorConfig, flow_batch
from snaflow.fractal import graph_point_cloud
from snaflow.graphs import (
    GraphSample,
    _regrid,
    interp_at_shift,
    lift_graph,
    pullback_attractor,
    pushforward_repeller,
)
from snaflow.section import SectionMap, _grid_nodes
from snaflow.torus import RotationVector, wrap_unit

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
RHO = RotationVector([GOLDEN, math.pi])
CFG = IntegratorConfig()
FIG_CFG = CFG.with_escape(-25.0, 25.0)


def make_radial(b=4.0):
    return RadialLogistic(b, BumpProfile(0.3), [0.5, 0.8])


# ------------------------------------------------- ODE references


def ode_lift(family, beta, rho, graph, grid_D, cfg):
    """Every lift level flowed by the ODE ("x" channel) from its start, all
    levels in one batch that peels off level by level."""
    d = graph.d
    T = 1.0 / rho.rho_D
    seg = T / grid_D
    n_sec = grid_D**d
    backward = graph.role == "repeller"
    base_vals = graph.values if graph.values.shape == (grid_D,) * d else _regrid(graph.values, grid_D)
    nodes = _grid_nodes((grid_D,) * d, d)
    out = np.empty((n_sec, grid_D))
    out[:, 0] = base_vals.ravel()
    order = list(range(1, grid_D))[::-1 if backward else 1]
    theta0 = np.empty((len(order), n_sec, d))
    x0 = np.empty((len(order), n_sec))
    for row, k in enumerate(order):
        off = (T - k * seg) if backward else -k * seg
        theta0[row] = nodes + off * rho.rho[:-1]
        x0[row] = interp_at_shift(base_vals, wrap_unit(off * rho.rho[:-1])).ravel()
    base = np.concatenate([theta0.reshape(-1, d), np.zeros((len(order) * n_sec, 1))], axis=1)
    x_all = x0.reshape(-1)
    sgn = -1.0 if backward else 1.0
    for row, k in enumerate(order):
        live = slice(row * n_sec, None)
        res = flow_batch(family, beta, rho, base[live] + sgn * row * seg * rho.rho,
                         x_all[live], sgn * seg, cfg, channels="x")
        assert not res.escaped.any()
        x_all[live] = res.y[0]
        out[:, k] = x_all[row * n_sec: (row + 1) * n_sec]
    return out.reshape((grid_D,) * d + (grid_D,))


def ode_section_cloud(family, beta, rho, graph, n_points, cfg, seed, n_orbits, burn_in):
    """The section cloud with one ODE return (``SectionMap.step``) per orbit step."""
    reverse = graph.role == "repeller"
    smap = SectionMap(family, beta, rho, cfg, reverse=reverse)
    rng = np.random.default_rng(seed)
    theta = wrap_unit(rng.random((n_orbits, graph.d)) + np.arange(n_orbits)[:, None] / n_orbits)
    lo, hi = family.section_bounds()
    x = np.full(n_orbits, lo if reverse else hi)
    pts = []
    for step in range(burn_in + math.ceil(n_points / n_orbits)):
        res = smap.step(theta, x)
        assert not res.escaped.any()
        x = res.y[0]
        theta = wrap_unit(theta + smap.shift)
        if step >= burn_in:
            pts.append(np.concatenate([theta, x[:, None]], axis=1))
    return np.concatenate(pts)[:n_points]


# ------------------------------------------------- the interpolant


class TestInterpolant:
    @pytest.mark.parametrize("n", [8, 16])
    def test_grid_evaluation_is_the_pointwise_one(self, n):
        # G below, at, above and not a divisor of N: the FFT path folds the
        # frequencies onto the G grid without aliasing
        rng = np.random.default_rng(n)
        values = rng.standard_normal((3, 4, n))
        table = FourierCocycle(values)
        assert np.max(np.abs(table.at(np.arange(n) / n) - values)) <= 1e-12
        for G in (3, 5, n, n + 1, 40):
            shifts = rng.random(4)
            want = np.stack([table.at(np.arange(G) / G + s)[1] for s in shifts], axis=1)
            got = table.on_grid(1, G, table.phases(shifts))
            assert got.shape == (4, shifts.size, G)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_nyquist_term_is_the_cosine(self):
        # alternating node values: the symmetric interpolant is cos(pi N theta)
        table = FourierCocycle(np.array([1.0, -1.0] * 4)[None, None])
        assert table.at([0.3 / 8])[0, 0, 0] == pytest.approx(math.cos(0.3 * math.pi), abs=1e-14)
        on_grid = table.on_grid(0, 5, table.phases([0.3 / 8]))
        assert on_grid[0, 0, 0] == pytest.approx(math.cos(0.3 * math.pi), abs=1e-14)

    def test_orbit_recurrence_matches_fresh_exponentials(self):
        smap = SectionMap(Cos11(100.0), 176.01538, RHO, FIG_CFG)
        table = tabulate(smap, smap.sub_returns())
        theta = np.random.default_rng(3).random((16, 1))
        for k, pieces in enumerate(table.along_orbit(theta, smap.shift, 2 * cocycle.ORBIT_BLOCK + 3)):
            want = table.at(theta)
            theta = wrap_unit(theta + smap.shift)
        assert np.max(np.abs(pieces - want)) <= 1e-12


class TestCrossCheck:
    # the interpolated matrices against the ones integrated at the same points
    @pytest.mark.parametrize("family, beta, cfg", [
        (make_radial(), 0.3, CFG),
        (Cos11(100.0), 176.01538, FIG_CFG),
        (LogisticHarvest(4.0, 2.0, BumpProfile(0.3), [0.5, 0.8]), 0.3, CFG),
    ])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_the_mobius_table(self, family, beta, cfg, reverse):
        smap = SectionMap(family, beta, RHO, cfg, reverse=reverse)
        table = tabulate(smap, smap.sub_returns())
        assert isinstance(table, FourierCocycle)
        assert table.discrepancy <= 10.0 * cfg.rel_tol
        theta = np.random.default_rng(11).random((64, 1))
        exact = smap.mobius_table(theta)
        assert np.max(np.abs(table.at(theta) - exact)) <= 1e-8


class TestCertificate:
    def _tabulate_counting(self, monkeypatch, family, beta, cfg, rho=RHO):
        calls = []
        original = cocycle.integrate_pieces

        def counting(smap, m, theta):
            calls.append(len(theta))
            return original(smap, m, theta)

        monkeypatch.setattr(cocycle, "integrate_pieces", counting)
        smap = SectionMap(family, beta, rho, cfg)
        return smap, tabulate(smap, smap.sub_returns()), calls

    def test_figure_family_stays_at_64(self, monkeypatch):
        _, table, calls = self._tabulate_counting(monkeypatch, Cos11(100.0), 176.01538, FIG_CFG)
        assert table.n == 64
        assert calls == [128]        # the 64 nodes and their 64 midpoints, once

    def test_bump_doubles(self, monkeypatch):
        # a C^2 bump: coefficients decay like N^-3, so 64 nodes are not enough
        smap, table, calls = self._tabulate_counting(monkeypatch, make_radial(), 0.2, CFG)
        assert table.n == 1024
        # each doubling integrates only the midpoints of the new grid
        assert calls == [128] + [64 * 2**i for i in range(1, len(calls))]
        assert table.n == 64 * 2 ** (len(calls) - 1)
        assert table.discrepancy <= 10.0 * CFG.rel_tol
        # the doubled grids interleave the old nodes and midpoints
        nodes = np.arange(table.n) / table.n
        exact = cocycle.integrate_pieces(smap, smap.sub_returns(), nodes)
        assert np.max(np.abs(table.at(nodes) - exact)) <= 1e-8

    def test_no_table_without_a_certificate_up_to_n_max(self, monkeypatch):
        monkeypatch.setattr(cocycle, "N_MAX", 128)
        _, table, calls = self._tabulate_counting(monkeypatch, make_radial(), 0.2, CFG)
        assert table is None
        assert calls == [128, 128]

    def test_no_table_for_two_section_axes(self, monkeypatch):
        rho = RotationVector([GOLDEN, math.sqrt(2.0) - 1.0, math.pi])
        fam = RadialLogistic(4.0, BumpProfile(0.3), [0.5, 0.8, 0.3])
        _, table, calls = self._tabulate_counting(monkeypatch, fam, 0.2, CFG, rho)
        assert table is None and calls == []

    def test_rejects_pieces_longer_than_a_sub_return(self):
        smap = SectionMap(Cos11(100.0), 176.01538, RHO, FIG_CFG)
        with pytest.raises(ValueError):
            tabulate(smap, smap.sub_returns() - 1)


# ------------------------------------------------- the consumers


@pytest.fixture(scope="module")
def cos11_pair():
    fam = Cos11(100.0)
    att = pullback_attractor(fam, 170.0, RHO, 32, 4000, FIG_CFG)
    rep = pushforward_repeller(fam, 170.0, RHO, 32, 4000, FIG_CFG)
    assert att.converged and rep.converged
    return fam, 170.0, FIG_CFG, att, rep


@pytest.fixture(scope="module")
def radial_pair():
    fam = make_radial()
    att = pullback_attractor(fam, 0.2, RHO, 64, 600, CFG)
    rep = pushforward_repeller(fam, 0.2, RHO, 64, 600, CFG)
    assert att.converged and rep.converged
    return fam, 0.2, CFG, att, rep


def _record_sources(monkeypatch):
    import snaflow.fractal as fractal
    import snaflow.graphs as graphs

    sources = []

    def recording(*args):
        table = tabulate(*args)
        sources.append("ode" if table is None else table.n)
        return table

    monkeypatch.setattr(graphs, "tabulate", recording)
    monkeypatch.setattr(fractal, "tabulate", recording)
    return sources


class TestConsumers:
    # grid_D = 8 < S = 12 puts two pieces in each cos11 level; the bump table
    # needs more than 64 nodes. Those three grids are below K = N/2 + 1 and
    # fold the spectrum; cos11 at grid_D = 80 >= 2K evaluates it unfolded, as
    # figure1 does.
    @pytest.mark.parametrize("pair, grid_D", [
        ("cos11_pair", 16),
        ("cos11_pair", 8),
        ("cos11_pair", 80),
        ("radial_pair", 16),
    ])
    def test_lifts_match_the_ode_lift(self, pair, grid_D, request, monkeypatch):
        fam, beta, cfg, att, rep = request.getfixturevalue(pair)
        sources = _record_sources(monkeypatch)
        for graph in (att, rep):
            lifted = lift_graph(fam, beta, RHO, graph, grid_D, cfg)
            want = ode_lift(fam, beta, RHO, graph, grid_D, cfg)
            assert np.array_equal(lifted.values[..., 0], want[..., 0])
            assert np.max(np.abs(lifted.values - want)) <= 1e-8
        assert len(sources) == 2 and "ode" not in sources
        assert (sources[0] == 64) == (pair == "cos11_pair")

    @pytest.mark.parametrize("pair", ["cos11_pair", "radial_pair"])
    def test_clouds_match_the_ode_cloud(self, pair, request, monkeypatch):
        fam, beta, cfg, att, rep = request.getfixturevalue(pair)
        sources = _record_sources(monkeypatch)
        for graph in (att, rep):
            cloud = graph_point_cloud(fam, beta, RHO, graph, 1024, cfg, seed=4, burn_in=16)
            want = ode_section_cloud(fam, beta, RHO, graph, 1024, cfg, 4, 256, 16)
            assert np.array_equal(cloud[:, 0], want[:, 0])
            assert np.max(np.abs(cloud[:, 1] - want[:, 1])) <= 1e-8
        assert len(sources) == 2 and "ode" not in sources

    def test_no_scalar_flow_in_a_d1_lift_or_cloud(self, radial_pair, monkeypatch):
        import snaflow.fractal as fractal
        import snaflow.section as section

        fam, beta, cfg, att, _ = radial_pair
        channels = []
        original = section.flow_batch

        def counting(*args, **kwargs):
            channels.append(kwargs.get("channels", "x"))
            return original(*args, **kwargs)

        monkeypatch.setattr(section, "flow_batch", counting)
        monkeypatch.setattr(fractal, "flow_batch", counting)
        lift_graph(fam, beta, RHO, att, 16, cfg)
        graph_point_cloud(fam, beta, RHO, att, 1024, cfg, seed=0, burn_in=8)
        assert channels and set(channels) == {"mobius"}

    def test_escape_in_a_lift_is_reported(self, radial_pair):
        fam, beta, _, att, _ = radial_pair
        # the lifted surface holds the section graph, whose dip leaves this window
        tight = CFG.with_escape(0.5 * (float(att.values.min()) + 1.0), 2.0)
        with pytest.raises(FlowEscape):
            lift_graph(fam, beta, RHO, att, 16, tight)

    def test_d3_bump_flows_the_ode(self, monkeypatch):
        rho = RotationVector([GOLDEN, math.sqrt(2.0) - 1.0, math.pi])
        fam = RadialLogistic(4.0, BumpProfile(0.3), [0.5, 0.8, 0.3])
        att = pullback_attractor(fam, 0.2, rho, 16, 600, CFG)
        assert att.converged
        sources = _record_sources(monkeypatch)
        lifted = lift_graph(fam, 0.2, rho, att, 8, CFG)
        assert np.max(np.abs(lifted.values - ode_lift(fam, 0.2, rho, att, 8, CFG))) <= 1e-8
        cloud = graph_point_cloud(fam, 0.2, rho, att, 64, CFG, seed=1, n_orbits=16, burn_in=4)
        want = ode_section_cloud(fam, 0.2, rho, att, 64, CFG, 1, 16, 4)
        assert np.array_equal(cloud[:, :2], want[:, :2])
        assert np.max(np.abs(cloud[:, 2] - want[:, 2])) <= 1e-8
        assert sources == ["ode"] * 2

    def test_large_d3_lift_integrates_no_table(self, monkeypatch):
        # 128 levels of a 128^2 section grid: a Fourier table would hold
        # 128 x 4 x 64^2 entries at the least; the lift goes straight to the ODE
        import snaflow.graphs as graphs

        class Stop(Exception):
            pass

        def stop(*args, **kwargs):
            raise Stop

        rho = RotationVector([GOLDEN, math.sqrt(2.0) - 1.0, math.pi])
        fam = RadialLogistic(4.0, BumpProfile(0.3), [0.5, 0.8, 0.3])
        graph = GraphSample(np.zeros((16, 16)), "attractor", 0.0, 0, True, 16, 0.2, 0.0)
        sources = _record_sources(monkeypatch)
        monkeypatch.setattr(cocycle, "integrate_pieces", stop)
        channels = []
        monkeypatch.setattr(graphs, "flow_batch",
                            lambda *args, **kwargs: channels.append(kwargs["channels"]) or stop())
        with pytest.raises(Stop):
            lift_graph(fam, 0.2, rho, graph, 128, CFG)
        assert sources == ["ode"] and channels == ["x"]

    def test_graph_values_are_not_read_by_the_cloud(self, radial_pair):
        fam, beta, cfg, att, _ = radial_pair
        blank = GraphSample(np.zeros_like(att.values), "attractor", 0.0, 0, True,
                            att.grid_n, beta, 0.0)
        a = graph_point_cloud(fam, beta, RHO, att, 1024, cfg, seed=0, burn_in=8)
        b = graph_point_cloud(fam, beta, RHO, blank, 1024, cfg, seed=0, burn_in=8)
        assert np.array_equal(a, b)
