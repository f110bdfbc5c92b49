"""Tests for the host-side wall-clock profiler."""

import pytest

from repro.designs import FrameSink, FrameSource, UdpEchoDesign
from repro.packet import IPv4Address, MacAddress, build_ipv4_udp_frame
from repro.telemetry import HostProfiler, profile_run

CLIENT_IP = IPv4Address("10.0.0.1")
CLIENT_MAC = MacAddress("02:00:00:00:00:01")


def make_design(**kwargs):
    design = UdpEchoDesign(udp_port=7, line_rate_bytes_per_cycle=None,
                           **kwargs)
    design.add_client(CLIENT_IP, CLIENT_MAC)
    return design


def drive(design, payload=b"profile me"):
    sink = FrameSink(design.eth_tx)
    design.sim.add(sink)
    frame = build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                 CLIENT_IP, design.server_ip, 5555, 7,
                                 payload)
    design.inject(frame, 0)
    return sink


class TestInstallUninstall:
    def test_uninstall_restores_call_sites(self):
        design = make_design()
        sim_tick = design.sim.tick
        tile = next(iter(design.tiles))
        pump = tile._pump_process
        profiler = HostProfiler().install(design)
        assert design.sim.tick is not sim_tick
        profiler.uninstall()
        assert design.sim.tick == sim_tick
        assert tile._pump_process == pump
        assert not profiler.installed

    def test_double_install_raises(self):
        design = make_design()
        profiler = HostProfiler().install(design)
        try:
            with pytest.raises(RuntimeError):
                profiler.install(design)
        finally:
            profiler.uninstall()

    def test_codec_patches_are_process_wide_but_reverted(self):
        from repro.packet import builder
        original = builder.parse_frame
        design = make_design()
        profiler = HostProfiler().install(design)
        assert builder.parse_frame is not original
        profiler.uninstall()
        assert builder.parse_frame is original

    def test_behaviour_unchanged_under_profiler(self):
        design_plain = make_design()
        sink_plain = drive(design_plain)
        design_plain.sim.run(2000)

        design_prof = make_design()
        sink_prof = drive(design_prof)
        profiler, _ = profile_run(design_prof, 2000)
        assert sink_prof.count == sink_plain.count
        assert design_prof.sim.cycle == design_plain.sim.cycle


class TestAttribution:
    def test_buckets_cover_the_phases(self):
        design = make_design()
        drive(design)
        profiler, wall = profile_run(design, 2000)
        report = profiler.report()
        assert "kernel.tick" in report
        assert "packet.codec" in report
        # Flat backends are the default: the cores' phases show up.
        assert "noc.flatmesh.step" in report
        assert "tiles_flat" in report
        assert wall > 0

    def test_object_backend_buckets(self):
        design = make_design(mesh_backend="object")
        drive(design)
        profiler, _ = profile_run(design, 2000)
        report = profiler.report()
        assert "noc.router.step" in report
        assert "noc.localport.step" in report

    def test_object_tile_backend_pumps(self):
        design = make_design(tile_backend="object")
        drive(design)
        profiler, _ = profile_run(design, 2000)
        report = profiler.report()
        assert report["tiles.pump_eject"]["calls"] > 0
        assert report["tiles.pump_process"]["calls"] > 0

    def test_flat_engines_have_no_dead_buckets(self):
        """On the default flat engines every bucket counts calls (the
        fast tiles' pumps are inlined, so they get no bucket), and the
        buckets account for at least 95% of the run's wall clock."""
        design = make_design()
        frame = build_ipv4_udp_frame(CLIENT_MAC, design.server_mac,
                                     CLIENT_IP, design.server_ip, 5555,
                                     7, bytes(1458))
        design.sim.add(FrameSource(design.inject, lambda i: frame,
                                   rate=None))
        design.sim.add(FrameSink(design.eth_tx))
        profiler, wall = profile_run(design, 6000)
        report = profiler.report()
        assert "tiles.pump_eject" not in report
        assert {name: row["calls"] for name, row in report.items()
                if not row["calls"]} == {}
        covered = sum(row["self_s"] for row in report.values())
        assert covered >= 0.95 * wall

    def test_sharded_design_buckets(self):
        # The sharded facades (gauge-only mesh core, per-shard tile
        # core aggregate) must still route host time into the flat
        # buckets — the profiler times the per-band inner cores.
        design = make_design(shards=2)
        drive(design)
        profiler, wall = profile_run(design, 2000)
        report = profiler.report()
        assert "noc.flatmesh.step" in report
        assert "tiles_flat" in report
        assert wall > 0
        # profile_run uninstalled: the band cores stepped unwrapped.
        for band in design.mesh.bands:
            assert not getattr(band.core.step, "__wrapped__", None)

    def test_exclusive_time_accounting(self):
        """Self time never exceeds inclusive time, and the phase
        shares sum to ~100% — nested calls are charged once."""
        design = make_design()
        drive(design)
        profiler, _ = profile_run(design, 2000)
        report = profiler.report()
        for row in report.values():
            assert 0 <= row["self_s"] <= row["total_s"] + 1e-9
        assert sum(row["self_pct"] for row in report.values()) \
            == pytest.approx(100.0)
        # tick is the outermost phase: everything nests inside it.
        tick = report["kernel.tick"]
        assert tick["self_s"] < tick["total_s"]

    def test_format_report_renders(self):
        design = make_design()
        drive(design)
        profiler, _ = profile_run(design, 500)
        text = profiler.format_report()
        assert "phase" in text and "kernel.tick" in text
