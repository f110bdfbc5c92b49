"""Tests for the mesh dashboard's deterministic replay rendering."""

from pathlib import Path

import pytest

from repro.telemetry.export import SnapshotSeries
from repro.tools.top import (
    main,
    mesh_extent,
    render_all,
    render_frame,
    router_activity,
    sparkline,
)

FIXTURE = Path(__file__).parent / "data" / "snapshots_udp_echo.json"


def make_series():
    series = SnapshotSeries(interval=100, design="test")
    series.append({
        "cycle": 100,
        "kernel": {"cycle": 100, "components": 4,
                   "idle_cycles_skipped": 10, "component_steps": 123},
        "links": {"(0, 0)->east": 40, "(1, 0)->local": 12},
        "busy_routers": 2,
        "total_flits": 52,
        "tiles": {
            "a": {"coord": [0, 0], "msgs_in": 5, "msgs_out": 5,
                  "drops": 0, "rx_ready": 0, "buffered_flits": 0,
                  "eject_depth": 1, "eject_hwm": 2, "tx_backlog": 0,
                  "tx_hwm": 1},
            "b": {"coord": [1, 0], "msgs_in": 4, "msgs_out": 4,
                  "drops": 1, "rx_ready": 0, "buffered_flits": 0,
                  "eject_depth": 0, "eject_hwm": 1, "tx_backlog": 2,
                  "tx_hwm": 3},
        },
        "latency": {"completed": 3, "window_p50": 80.0,
                    "window_max": 95, "p50": 80.0, "p99": 95.0,
                    "p999": 95.0, "last_transit": 95},
        "faults": {"wire.drop": 2},
    })
    return series


class TestRenderHelpers:
    def test_mesh_extent_from_tiles_and_links(self):
        snapshot = make_series().snapshots[0]
        assert mesh_extent(snapshot) == (2, 1)

    def test_router_activity_sums_outgoing(self):
        snapshot = make_series().snapshots[0]
        assert router_activity(snapshot) == {(0, 0): 40, (1, 0): 12}

    def test_sparkline_shape(self):
        assert sparkline([]) == ""
        assert sparkline([None, None]) == ""
        line = sparkline([0, 1, 5, 10])
        assert len(line) == 4
        assert line[0] == " "
        assert line[-1] == "█"


class TestDeterminism:
    def test_same_series_same_frame(self):
        series = make_series()
        assert render_frame(series, 0) == render_frame(series, 0)

    def test_replay_fixture_is_stable(self):
        """The CI contract: replaying a recorded file renders
        byte-identical frames, load after load."""
        first = render_all(SnapshotSeries.load(str(FIXTURE)))
        second = render_all(SnapshotSeries.load(str(FIXTURE)))
        assert first == second
        assert "repro.top — udp_echo" in first

    def test_frame_mentions_all_tiles_and_faults(self):
        text = render_frame(make_series(), 0)
        assert "a " in text and "b " in text
        assert "wire.drop=2" in text
        assert "last transit=95" in text
        assert "kernel: 4 components, 10 idle skipped, 123 steps" \
            in text


class TestCli:
    def test_replay_renders(self, capsys):
        assert main(["--replay", str(FIXTURE), "--plain"]) == 0
        out = capsys.readouterr().out
        assert out.count("repro.top") == \
            len(SnapshotSeries.load(str(FIXTURE)).snapshots)

    def test_replay_single_frame(self, capsys):
        assert main(["--replay", str(FIXTURE), "--frame", "-1"]) == 0
        assert capsys.readouterr().out.count("repro.top") == 1

    def test_replay_frame_out_of_range(self, capsys):
        assert main(["--replay", str(FIXTURE), "--frame", "999"]) == 1

    def test_replay_missing_file(self):
        assert main(["--replay", "/nonexistent.json"]) == 1

    def test_design_required_without_replay(self):
        with pytest.raises(SystemExit):
            main([])

    def test_live_plain_smoke(self, capsys, tmp_path):
        save = tmp_path / "live.json"
        assert main(["udp_echo", "--plain", "--cycles", "1200",
                     "--interval", "400", "--save", str(save)]) == 0
        assert save.exists()
        loaded = SnapshotSeries.load(str(save))
        assert len(loaded.snapshots) >= 2
