"""Unit tests for the flat tile engine (``repro.tiles.flatcore``).

The cross-backend bit-identity is pinned by
``test_kernel_equivalence``; these tests cover the core's own API —
adoption, fast/object mode classification, views, busy-bit hooks,
``register_tiles`` validation — and the structural-lint interplay
(double-stepping an adopted tile is a BHV106).
"""

import pytest

from repro.analysis.structural import run as lint
from repro.designs.udp_stack import UdpEchoDesign
from repro.designs.multi_stack import MultiStackDesign
from repro.packet import IPv4Address, MacAddress, build_ipv4_udp_frame
from repro.sim.kernel import CycleSimulator
from repro.tiles.flatcore import FlatTileCore, register_tiles

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")


def echo_design(**kwargs):
    design = UdpEchoDesign(udp_port=7, **kwargs)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    return design


def echo_frame(design, payload=b"ping"):
    return build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                CLIENT_IP, design.server_ip,
                                5555, 7, payload)


class TestRegisterTiles:
    def test_flat_returns_core_object_returns_none(self):
        flat = echo_design(tile_backend="flat")
        assert isinstance(flat.tile_core, FlatTileCore)
        assert len(flat.tile_core.tiles) == len(flat.tiles)

        obj = echo_design(tile_backend="object")
        assert obj.tile_core is None

    def test_unknown_backend_rejected(self):
        sim = CycleSimulator()
        with pytest.raises(ValueError, match="tile backend"):
            register_tiles(sim, [], "vector")
        with pytest.raises(ValueError, match="tile backend"):
            CycleSimulator(tile_backend="vector")
        with pytest.raises(ValueError, match="tile backend"):
            echo_design(tile_backend="vector")

    def test_dict_of_tiles_accepted(self):
        design = echo_design(tile_backend="flat")
        sim = CycleSimulator()
        core = register_tiles(sim, {t.name: t for t in design.tiles},
                              "flat")
        assert [t.name for t in core.tiles] == \
            [t.name for t in design.tiles]

    def test_adopt_rejects_non_tiles(self):
        core = FlatTileCore()
        with pytest.raises(TypeError, match="adopt"):
            core.adopt(object())


class TestViews:
    def test_views_expose_name_kind_and_mode(self):
        design = echo_design(tile_backend="flat")
        core = design.tile_core
        views = core.views()
        assert [v.name for v in views] == [t.name for t in design.tiles]
        assert all(v.mode == "fast" for v in views)
        assert core.view("udp_rx").tile is design.udp_rx
        assert core.view(design.app).name == "app"

    def test_overriding_engine_hook_falls_back_to_object_mode(self):
        # The flow-hash load balancer overrides _pump_process (fan-out
        # service), so the core must not inline it.
        design = MultiStackDesign(stacks=2, tile_backend="flat")
        modes = {v.name: v.mode for v in design.tile_core.views()}
        assert modes["lb"] == "object"
        assert modes["udp_rx_0"] == "fast"

    def test_by_kind_counts(self):
        design = echo_design(tile_backend="flat")
        by_kind = design.tile_core.by_kind
        assert len(by_kind["udp_rx"]) == 1
        names = [design.tile_core.tiles[i].name
                 for i in by_kind["echo_app"]]
        assert names == ["app"]


class TestScheduling:
    def test_core_goes_idle_and_wakes_on_injection(self):
        design = echo_design(tile_backend="flat")
        core = design.tile_core
        design.sim.run(50)
        assert core.is_idle()
        assert core.busy_tiles == 0
        design.inject(echo_frame(design), design.sim.cycle)
        assert not core.is_idle()  # eth_rx's busy bit is set again
        design.sim.run(500)
        assert len(design.eth_tx.frames_out) == 1
        assert core.is_idle()

    def test_substeps_and_busy_hooks_cover_all_tiles(self):
        design = echo_design(tile_backend="flat")
        core = design.tile_core
        assert core.kernel_substeps() == design.tiles
        # Every adopted tile's ejection FIFO sets that tile's busy bit.
        for tile in design.tiles:
            assert tile.port.eject_fifo._wakers == [tile._kernel_wake]


class TestLintIntegration:
    def test_flat_design_lints_clean(self):
        for backend in ("object", "flat"):
            design = echo_design(tile_backend=backend)
            assert [f.code for f in lint(design)] == []

    def test_double_adoption_is_flagged(self):
        design = echo_design(tile_backend="flat")
        second = FlatTileCore("second")
        second.adopt(design.eth_rx)
        design.sim.add(second)
        codes = [f.code for f in lint(design)
                 if f.code == "BHV106" and f.location == "eth_rx"]
        assert codes == ["BHV106"]

    def test_registered_and_adopted_is_flagged(self):
        design = echo_design(tile_backend="flat")
        design.sim.add(design.udp_rx)
        codes = [f.code for f in lint(design)
                 if f.code == "BHV106" and f.location == "udp_rx"]
        assert codes == ["BHV106"]
