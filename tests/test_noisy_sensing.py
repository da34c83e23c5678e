"""Unit tests for imperfect distance sensing (NoisySensingUDG)."""

import pytest

from repro.core.udg import part_one_leaders, solve_kmds_udg
from repro.core.verify import is_k_dominating_set
from repro.errors import GraphError
from repro.graphs.udg import NoisySensingUDG, random_udg


@pytest.fixture
def base_points():
    return random_udg(120, density=10.0, seed=8).points


class TestNoisySensingUDG:
    def test_zero_sigma_matches_exact(self, base_points):
        exact = random_udg(0, seed=0)  # placeholder; rebuild from points
        from repro.graphs.udg import UnitDiskGraph

        exact = UnitDiskGraph(base_points)
        noisy = NoisySensingUDG(base_points, sigma=0.0, noise_seed=1)
        for v in range(0, 120, 10):
            assert set(noisy.neighbors_within(v, 0.4)) == \
                set(exact.neighbors_within(v, 0.4))

    def test_communication_graph_unchanged(self, base_points):
        from repro.graphs.udg import UnitDiskGraph

        exact = UnitDiskGraph(base_points)
        noisy = NoisySensingUDG(base_points, sigma=0.4, noise_seed=2)
        assert set(noisy.nx.edges) == set(exact.nx.edges)

    def test_sensed_distance_symmetric(self, base_points):
        noisy = NoisySensingUDG(base_points, sigma=0.3, noise_seed=3)
        u, v = next(iter(noisy.nx.edges))
        assert noisy.sensed_distance(u, v) == noisy.sensed_distance(v, u)

    def test_sensed_distance_within_factor(self, base_points):
        noisy = NoisySensingUDG(base_points, sigma=0.2, noise_seed=4)
        for u, v in list(noisy.nx.edges)[:50]:
            true = noisy.distance(u, v)
            sensed = noisy.sensed_distance(u, v)
            assert 0.8 * true - 1e-12 <= sensed <= 1.2 * true + 1e-12

    def test_neighbors_within_uses_sensed(self, base_points):
        noisy = NoisySensingUDG(base_points, sigma=0.3, noise_seed=5)
        for v in range(0, 120, 15):
            got = set(noisy.neighbors_within(v, 0.5))
            want = {w for w in noisy.nx.neighbors(v)
                    if noisy.sensed_distance(v, w) <= 0.5}
            assert got == want

    def test_noise_deterministic_per_seed(self, base_points):
        a = NoisySensingUDG(base_points, sigma=0.3, noise_seed=6)
        b = NoisySensingUDG(base_points, sigma=0.3, noise_seed=6)
        u, v = next(iter(a.nx.edges))
        assert a.sensed_distance(u, v) == b.sensed_distance(u, v)

    def test_invalid_sigma(self, base_points):
        with pytest.raises(GraphError, match="sigma"):
            NoisySensingUDG(base_points, sigma=1.0)
        with pytest.raises(GraphError, match="sigma"):
            NoisySensingUDG(base_points, sigma=-0.1)


class TestAlgorithm3UnderNoise:
    @pytest.mark.parametrize("sigma", [0.1, 0.3])
    def test_final_output_valid(self, base_points, sigma):
        noisy = NoisySensingUDG(base_points, sigma=sigma, noise_seed=7)
        ds = solve_kmds_udg(noisy, k=2, seed=0)
        assert is_k_dominating_set(noisy, ds.members, 2)

    def test_modes_agree_under_noise(self, base_points):
        noisy = NoisySensingUDG(base_points, sigma=0.25, noise_seed=8)
        d = solve_kmds_udg(noisy, k=2, mode="direct", seed=3)
        m = solve_kmds_udg(noisy, k=2, mode="message", seed=3)
        assert d.members == m.members

    def test_part1_differs_from_noise_free(self, base_points):
        from repro.graphs.udg import UnitDiskGraph

        exact = UnitDiskGraph(base_points)
        noisy = NoisySensingUDG(base_points, sigma=0.45, noise_seed=9)
        a = part_one_leaders(exact, seed=1).members
        b = part_one_leaders(noisy, seed=1).members
        # Heavy noise must actually perturb the elections.
        assert a != b
