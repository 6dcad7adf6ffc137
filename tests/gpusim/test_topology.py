"""Board topology: the locality matrix."""

import pytest

from repro.gpusim.errors import InvalidDeviceError
from repro.gpusim.host import make_k80_host
from repro.gpusim.smi import render_topology


class TestBoardGeometry:
    def test_k80_pairs(self):
        host = make_k80_host(boards=2)
        assert host.board_of(0) == host.board_of(1) == 0
        assert host.board_of(2) == host.board_of(3) == 1
        assert host.same_board(0, 1)
        assert not host.same_board(1, 2)

    def test_validation(self):
        with pytest.raises(InvalidDeviceError):
            make_k80_host().board_of(9)


class TestTopologyMatrix:
    def test_four_die_matrix(self):
        host = make_k80_host(boards=2)
        topo = render_topology(host)
        lines = topo.splitlines()
        assert "GPU0" in lines[0] and "GPU3" in lines[0]
        # row GPU0: X PIX PHB PHB
        row0 = lines[1].split()
        assert row0 == ["GPU0", "X", "PIX", "PHB", "PHB"]
        row2 = lines[3].split()
        assert row2 == ["GPU2", "PHB", "PHB", "X", "PIX"]
        assert "Legend" in topo

    def test_lost_device_dropped_from_matrix(self):
        host = make_k80_host(boards=2)
        host.device(1).mark_failed()
        topo = render_topology(host)
        assert "GPU1" not in topo
