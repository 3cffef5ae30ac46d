"""Unit tests for latency models and message envelopes."""

import pytest

from repro.errors import NetworkError
from repro.network.latency import (
    ConstantLatency,
    LanMulticastLatency,
    UniformLatency,
)
from repro.network.message import next_envelope_id
from repro.simulation import SimulationKernel
from repro.simulation.randomness import RandomSource

NAN = float("nan")


@pytest.fixture
def stream():
    return RandomSource(1).stream("latency-test")


def one_way(model, stream):
    """The delay of one message from N1 to N2: shared plus per-receiver."""
    return model.shared_delay(stream) + model.receiver_delay("N1", "N2", stream)


class TestConstantLatency:
    def test_sample_is_constant(self, stream):
        model = ConstantLatency(0.002)
        assert one_way(model, stream) == pytest.approx(0.002)

    def test_negative_rejected(self):
        with pytest.raises(NetworkError):
            ConstantLatency(-0.001)

    def test_nan_rejected(self):
        with pytest.raises(NetworkError):
            ConstantLatency(NAN)

    def test_whole_delay_is_shared(self, stream):
        model = ConstantLatency(0.003)
        assert model.shared_delay(stream) == 0.003
        assert model.receiver_delay("N1", "N2", stream) == 0.0
        assert one_way(ConstantLatency(0.0), stream) == 0.0


class TestUniformLatency:
    def test_sample_within_bounds(self, stream):
        model = UniformLatency(0.001, 0.002)
        for _ in range(100):
            assert 0.001 <= one_way(model, stream) <= 0.002

    def test_invalid_bounds_rejected(self):
        with pytest.raises(NetworkError):
            UniformLatency(0.002, 0.001)
        with pytest.raises(NetworkError):
            UniformLatency(-0.001, 0.001)

    @pytest.mark.parametrize("bounds", [(NAN, 0.001), (0.001, NAN)])
    def test_nan_bounds_rejected(self, bounds):
        with pytest.raises(NetworkError):
            UniformLatency(*bounds)

    def test_whole_delay_is_per_receiver(self, stream):
        model = UniformLatency(0.0015, 0.0015)
        assert model.shared_delay(stream) == 0.0
        assert one_way(model, stream) == 0.0015


class TestLanMulticastLatency:
    def test_shared_delay_at_least_propagation(self, stream):
        model = LanMulticastLatency(propagation=0.0004)
        assert all(model.shared_delay(stream) >= 0.0004 for _ in range(100))

    def test_zero_transmission_jitter_gives_exact_propagation(self, stream):
        model = LanMulticastLatency(propagation=0.0004, transmission_jitter=0.0)
        assert {model.shared_delay(stream) for _ in range(20)} == {0.0004}

    def test_receiver_delay_nonnegative(self, stream):
        model = LanMulticastLatency()
        assert all(model.receiver_delay("N1", "N2", stream) >= 0.0 for _ in range(100))

    def test_zero_receiver_jitter_means_identical_arrival(self, stream):
        model = LanMulticastLatency(receiver_jitter_mean=0.0)
        delays = {model.receiver_delay("N1", f"N{i}", stream) for i in range(2, 6)}
        assert delays == {0.0}

    def test_invalid_parameters_rejected(self):
        with pytest.raises(NetworkError):
            LanMulticastLatency(propagation=-1.0)
        with pytest.raises(NetworkError):
            LanMulticastLatency(receiver_jitter_mean=-0.1)

    @pytest.mark.parametrize(
        "name", ["propagation", "transmission_jitter", "receiver_jitter_mean"]
    )
    def test_nan_parameters_rejected(self, name):
        with pytest.raises(NetworkError):
            LanMulticastLatency(**{name: NAN})


class TestGeoTopology:
    def build(self):
        from repro.network.latency import GeoTopology, LinkProfile

        return GeoTopology(
            {"N1": "eu", "N2": "eu", "N3": "us"},
            intra=LinkProfile(base=0.0005, jitter=0.0001),
            cross=LinkProfile(base=0.010, jitter=0.001),
        )

    def test_same_region_uses_intra_profile(self):
        topology = self.build()
        assert topology.profile("N1", "N2").base == 0.0005

    def test_cross_region_uses_cross_profile(self):
        topology = self.build()
        assert topology.profile("N1", "N3").base == 0.010
        assert topology.profile("N3", "N1").base == 0.010

    def test_region_pair_override_wins(self):
        from repro.network.latency import GeoTopology, LinkProfile

        topology = GeoTopology(
            {"N1": "eu", "N2": "us", "N3": "ap"},
            intra=LinkProfile(base=0.0005),
            cross=LinkProfile(base=0.010),
            overrides={("eu", "us"): LinkProfile(base=0.040)},
        )
        # The override applies in both directions unless a directed one
        # exists for the opposite ordering; other pairs keep the default.
        assert topology.profile("N1", "N2").base == 0.040
        assert topology.profile("N2", "N1").base == 0.040
        assert topology.profile("N1", "N3").base == 0.010

    def test_directed_override_beats_undirected(self):
        from repro.network.latency import GeoTopology, LinkProfile

        topology = GeoTopology(
            {"N1": "eu", "N2": "us"},
            intra=LinkProfile(base=0.0005),
            cross=LinkProfile(base=0.010),
            overrides={
                ("eu", "us"): LinkProfile(base=0.030),
                ("us", "eu"): LinkProfile(base=0.070),
            },
        )
        assert topology.profile("N1", "N2").base == 0.030
        assert topology.profile("N2", "N1").base == 0.070

    def test_striped_assignment_round_robins_by_site_index(self):
        from repro.network.latency import GeoTopology, LinkProfile

        topology = GeoTopology.striped(
            ("eu", "us"),
            intra=LinkProfile(base=0.0005),
            cross=LinkProfile(base=0.010),
        )
        assert topology.region_of("N1") == "eu"
        assert topology.region_of("N2") == "us"
        assert topology.region_of("N3") == "eu"
        # Sharded site ids stripe by the numeric suffix, prefix-agnostic.
        assert topology.region_of("S2:N2") == "us"

    def test_unknown_site_rejected(self):
        topology = self.build()
        with pytest.raises(NetworkError):
            topology.region_of("garbage")

    def test_explicit_region_beats_the_stripes(self):
        from repro.network.latency import GeoTopology

        topology = GeoTopology({"N1": "ap"}, stripes=("eu", "us"))
        assert topology.region_of("N1") == "ap"
        assert topology.region_of("N2") == "us"
        assert topology.region_of("N3") == "eu"

    def test_topology_needs_regions_or_stripes(self):
        from repro.network.latency import GeoTopology

        with pytest.raises(NetworkError):
            GeoTopology({})
        with pytest.raises(NetworkError):
            GeoTopology.striped(())

    def test_link_profiles_include_the_overrides(self):
        from repro.network.latency import GeoTopology, LinkProfile

        intra, cross, special = LinkProfile(0.001), LinkProfile(0.01), LinkProfile(0.05)
        topology = GeoTopology(
            {"N1": "eu", "N2": "us"},
            intra=intra,
            cross=cross,
            overrides={("eu", "us"): special},
        )
        assert topology.link_profiles() == (intra, cross, special)
        assert topology.one_way_spread() == pytest.approx(0.049)

    def test_one_way_spread(self):
        topology = self.build()
        assert topology.one_way_spread() == pytest.approx(0.010 - 0.0005)

    def test_negative_profile_rejected(self):
        from repro.network.latency import LinkProfile

        with pytest.raises(NetworkError):
            LinkProfile(base=-0.001)
        with pytest.raises(NetworkError):
            LinkProfile(base=0.001, jitter=-0.1)

    def test_nan_profile_rejected(self):
        from repro.network.latency import LinkProfile

        with pytest.raises(NetworkError):
            LinkProfile(base=NAN)
        with pytest.raises(NetworkError):
            LinkProfile(base=0.001, jitter=NAN)


class TestGeoLatency:
    def test_receiver_delay_tracks_the_link_profile(self, stream):
        from repro.network.latency import GeoLatency, GeoTopology, LinkProfile

        topology = GeoTopology(
            {"N1": "eu", "N2": "eu", "N3": "us"},
            intra=LinkProfile(base=0.0005, jitter=0.0),
            cross=LinkProfile(base=0.020, jitter=0.0),
        )
        model = GeoLatency(topology)
        # Zero jitter makes delays exact: intra fast, cross slow, per link.
        assert model.receiver_delay("N1", "N2", stream) == pytest.approx(0.0005)
        assert model.receiver_delay("N1", "N3", stream) == pytest.approx(0.020)

    def test_no_shared_medium_delay(self, stream):
        from repro.network.latency import GeoLatency, GeoTopology, LinkProfile

        topology = GeoTopology(
            {"N1": "eu", "N2": "us"},
            intra=LinkProfile(base=0.0005),
            cross=LinkProfile(base=0.020),
        )
        model = GeoLatency(topology)
        assert model.shared_delay(stream) == 0.0
        assert one_way(model, stream) == pytest.approx(0.020)

    def test_jitter_adds_on_top_of_base(self, stream):
        from repro.network.latency import GeoLatency, GeoTopology, LinkProfile

        topology = GeoTopology(
            {"N1": "eu", "N2": "us"},
            intra=LinkProfile(base=0.0005, jitter=0.0001),
            cross=LinkProfile(base=0.020, jitter=0.002),
        )
        model = GeoLatency(topology)
        samples = [model.receiver_delay("N1", "N2", stream) for _ in range(200)]
        assert all(sample >= 0.020 for sample in samples)
        assert len(set(samples)) > 1  # jitter actually varies


class TestEnvelope:
    def test_next_envelope_id_unique(self):
        kernel = SimulationKernel()
        ids = {next_envelope_id(kernel, "N1") for _ in range(100)}
        assert len(ids) == 100

    def test_envelope_ids_count_per_kernel(self):
        first, second = SimulationKernel(), SimulationKernel()
        assert next_envelope_id(first, "N1") == "N1#1"
        assert next_envelope_id(first, "N2") == "N2#2"
        assert next_envelope_id(second, "N1") == "N1#1"
