"""Unit tests for the flat (array-of-struct) mesh backend.

The heavyweight correctness bar — bit-identity with the object mesh
across every shipped design, drive, and trace stream — lives in
``test_kernel_equivalence.py``; these tests pin the backend's local
contracts: the factory, the view adapters, raw flit traffic, the
late-attach path, and the ``CycleSimulator`` backend kwargs.
"""

import pytest

from repro.noc.flatmesh import FlatMesh, FlatRouterView, build_mesh
from repro.noc.mesh import LocalPort, Mesh
from repro.noc.message import NocMessage, reset_id_counters
from repro.noc.routing import Port
from repro.sim.kernel import CycleSimulator, StagedFifo


class TestBuildMesh:
    def test_object_backend(self):
        mesh = build_mesh(3, 2, backend="object")
        assert isinstance(mesh, Mesh)
        assert (mesh.width, mesh.height) == (3, 2)

    def test_flat_backend(self):
        mesh = build_mesh(3, 2, backend="flat")
        assert isinstance(mesh, FlatMesh)
        assert (mesh.width, mesh.height) == (3, 2)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            build_mesh(3, 2, backend="vapor")

    def test_options_forwarded(self):
        mesh = build_mesh(2, 2, fifo_depth=7, routing="yx",
                          backend="flat")
        assert mesh.routing == "yx"
        view = mesh.routers[(0, 0)]
        assert view.inputs[Port.EAST].capacity == 7

    def test_bad_dimensions(self):
        for backend in ("object", "flat"):
            with pytest.raises(ValueError):
                build_mesh(0, 2, backend=backend)

    def test_bad_routing(self):
        for backend in ("object", "flat"):
            with pytest.raises(ValueError):
                build_mesh(2, 2, routing="zigzag", backend=backend)


class TestFlatMeshStructure:
    def test_router_grid_matches_object_mesh(self):
        flat = build_mesh(4, 3, backend="flat")
        obj = build_mesh(4, 3, backend="object")
        assert set(flat.routers) == set(obj.routers)
        for coord, view in flat.routers.items():
            assert isinstance(view, FlatRouterView)
            assert view.coord == coord
            assert view.name == obj.routers[coord].name

    def test_local_input_is_a_real_fifo(self):
        mesh = build_mesh(2, 2, backend="flat")
        local = mesh.routers[(1, 0)].inputs[Port.LOCAL]
        assert isinstance(local, StagedFifo)
        assert local.name == "router(1, 0).in.local"

    def test_direction_inputs_are_ring_views(self):
        mesh = build_mesh(2, 2, backend="flat")
        east = mesh.routers[(0, 0)].inputs[Port.EAST]
        assert len(east) == 0
        assert east.occupancy == 0
        assert east.peek() is None
        assert east.name == "router(0, 0).in.east"

    def test_connect_output_rejects_directions(self):
        mesh = build_mesh(2, 2, backend="flat")
        with pytest.raises(ValueError):
            mesh.routers[(0, 0)].connect_output(
                Port.EAST, StagedFifo(4, name="x"))

    def test_attach_is_idempotent(self):
        mesh = build_mesh(2, 2, backend="flat")
        port = mesh.attach((1, 1))
        assert isinstance(port, LocalPort)
        assert mesh.attach((1, 1)) is port

    def test_attach_off_mesh_raises(self):
        mesh = build_mesh(2, 2, backend="flat")
        with pytest.raises(KeyError):
            mesh.attach((5, 5))


def _run_raw_traffic(backend, drive, cycles=200):
    """Send two multi-flit messages corner-to-corner and return every
    observable outcome.  ``drive`` is ``"tick"`` (every cycle stepped)
    or ``"run"`` (idle cycles skipped)."""
    reset_id_counters()
    sim = CycleSimulator(mesh_backend=backend)
    mesh = build_mesh(3, 3, backend=backend)
    src = mesh.attach((0, 0))
    dst = mesh.attach((2, 2))
    mesh.register(sim)
    src.send(NocMessage(dst=(2, 2), src=(0, 0), metadata="hello",
                        data=bytes(range(130))))
    src.send(NocMessage(dst=(2, 2), src=(0, 0), metadata="again",
                        data=bytes(64)))
    received = []
    for _ in range(cycles):
        if drive == "tick":
            sim.tick()
        else:
            sim.run(1)
        message = dst.receive()
        if message is not None:
            received.append(
                (sim.cycle, message.metadata, bytes(message.data))
            )
    per_router = {coord: router.flits_forwarded
                  for coord, router in mesh.routers.items()}
    return {
        "received": received,
        "sent": src.messages_sent,
        "injected": src.flits_injected,
        "total_flits": mesh.total_flits_forwarded,
        "per_router": per_router,
    }


class TestRawTraffic:
    @pytest.mark.parametrize("drive", ["tick", "run"])
    def test_flat_matches_object(self, drive):
        flat = _run_raw_traffic("flat", drive)
        obj = _run_raw_traffic("object", drive)
        assert flat == obj

    def test_messages_arrive_intact(self):
        out = _run_raw_traffic("flat", "run")
        assert [m[1] for m in out["received"]] == ["hello", "again"]
        assert out["received"][0][2] == bytes(range(130))
        assert out["total_flits"] > 0


class TestLateAttach:
    @pytest.mark.parametrize("backend", ["object", "flat"])
    def test_port_attached_after_register_still_works(self, backend):
        """The managed design attaches its controller port after
        ``mesh.register``; the flat core must adopt (and step) such a
        port without it ever entering the simulator."""
        reset_id_counters()
        sim = CycleSimulator(mesh_backend=backend)
        mesh = build_mesh(2, 2, backend=backend)
        early = mesh.attach((0, 0))
        mesh.register(sim)
        sim.run(50)  # everything idle: one jump over all 50 cycles
        late = mesh.attach((1, 1))
        if not mesh.steps_ports:
            sim.add(late)
        early.send(NocMessage(dst=(1, 1), src=(0, 0),
                              metadata="late", data=bytes(16)))
        got = []
        for _ in range(50):
            sim.run(1)
            message = late.receive()
            if message is not None:
                got.append(message.metadata)
        assert got == ["late"]
        # And the reverse direction: traffic *from* the late port.
        late.send(NocMessage(dst=(0, 0), src=(1, 1),
                             metadata="reply", data=bytes(16)))
        back = []
        for _ in range(50):
            sim.run(1)
            message = early.receive()
            if message is not None:
                back.append(message.metadata)
        assert back == ["reply"]


class TestKernelKwargs:
    def test_defaults(self):
        sim = CycleSimulator()
        assert sim.mesh_backend == "object"
        assert sim.tile_backend == "object"

    def test_validation(self):
        with pytest.raises(ValueError):
            CycleSimulator(mesh_backend="vapor")
        with pytest.raises(ValueError):
            CycleSimulator(tile_backend="vapor")
