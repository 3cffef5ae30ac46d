"""Unit tests for FIFO broadcast."""

from repro.broadcast import FifoBroadcast
from repro.network import NetworkTransport, UniformLatency
from repro.network.dispatcher import SiteDispatcher
from repro.simulation import SimulationKernel


def build_fifo_group(site_count=3, seed=0, latency=None):
    kernel = SimulationKernel(seed=seed)
    transport = NetworkTransport(kernel, latency or UniformLatency(0.001, 0.005))
    endpoints = {}
    deliveries = {}
    for index in range(site_count):
        site = f"N{index + 1}"
        dispatcher = SiteDispatcher(transport, site)
        endpoint = FifoBroadcast(kernel, transport, site)
        dispatcher.register_kind("fifobcast.data", endpoint.on_envelope)
        deliveries[site] = []
        endpoint.add_listener(
            lambda fifo_id, origin, content, site=site: deliveries[site].append(
                (origin, content)
            )
        )
        endpoints[site] = endpoint
    return kernel, transport, endpoints, deliveries


class TestFifoBroadcast:
    def test_per_sender_order_is_preserved_despite_jitter(self):
        kernel, transport, endpoints, deliveries = build_fifo_group()
        for index in range(20):
            endpoints["N1"].broadcast(index)
        kernel.run_until_idle()
        for site, delivered in deliveries.items():
            values = [content for origin, content in delivered if origin == "N1"]
            assert values == list(range(20))

    def test_interleaving_of_different_senders_is_allowed(self):
        kernel, transport, endpoints, deliveries = build_fifo_group()
        for index in range(10):
            endpoints["N1"].broadcast(("a", index))
            endpoints["N2"].broadcast(("b", index))
        kernel.run_until_idle()
        for delivered in deliveries.values():
            a_values = [content for origin, content in delivered if origin == "N1"]
            b_values = [content for origin, content in delivered if origin == "N2"]
            assert a_values == [("a", index) for index in range(10)]
            assert b_values == [("b", index) for index in range(10)]

    def test_every_site_delivers_everything(self):
        kernel, transport, endpoints, deliveries = build_fifo_group(site_count=4)
        for site in ["N1", "N2", "N3", "N4"]:
            for index in range(5):
                endpoints[site].broadcast(index)
        kernel.run_until_idle()
        assert all(len(delivered) == 20 for delivered in deliveries.values())

    def test_a_foreign_payload_of_the_fifo_kind_is_refused(self):
        kernel, transport, endpoints, deliveries = build_fifo_group()
        transport.multicast("N1", "not-fifo", destinations=["N2"], kind="fifobcast.data")
        kernel.run_until_idle()
        assert deliveries["N2"] == []
