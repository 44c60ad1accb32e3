"""Unit tests for clock period accounting (A5/A6/A7)."""

import pytest

from repro.arrays.topologies import linear_array, mesh
from repro.clocktree.buffered import BufferedClockTree
from repro.clocktree.htree import htree_for_array
from repro.clocktree.spine import spine_clock
from repro.core.models import SummationModel
from repro.core.parameters import (
    ClockParameters,
    clock_period,
    equipotential_tau,
    pipelined_tau,
    scheme_parameters,
)
from repro.delay.wire import ElmoreWireModel


class TestClockParameters:
    def test_period_is_sum(self):
        assert ClockParameters(1.0, 2.0, 3.0).period == 6.0

    def test_exact_form_same_asymptotics(self):
        p = ClockParameters(sigma=5.0, delta=1.0, tau=2.0)
        assert p.period_exact_form == max(2.0, 11.0)

    def test_frequency(self):
        assert ClockParameters(1.0, 1.0, 2.0).frequency == 0.25

    def test_zero_period_has_no_frequency(self):
        with pytest.raises(ValueError):
            ClockParameters(0, 0, 0).frequency

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ClockParameters(-1, 0, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        for args in ((bad, 0, 0), (0, bad, 0), (0, 0, bad)):
            with pytest.raises(ValueError):
                ClockParameters(*args)

    def test_clock_period_helper(self):
        assert clock_period(1, 2, 3) == 6


class TestEquipotentialTau:
    def test_alpha_times_p(self):
        array = linear_array(16)
        tree = spine_clock(array)
        assert equipotential_tau(tree, alpha=2.0) == pytest.approx(2.0 * 15.0)

    def test_grows_with_size(self):
        small = equipotential_tau(spine_clock(linear_array(16)))
        large = equipotential_tau(spine_clock(linear_array(64)))
        assert large > 3 * small

    def test_elmore_grows_quadratically(self):
        model = ElmoreWireModel(r=1.0, c=1.0)
        t32 = equipotential_tau(spine_clock(linear_array(33)), wire_model=model)
        t64 = equipotential_tau(spine_clock(linear_array(65)), wire_model=model)
        assert t64 / t32 == pytest.approx(4.0, rel=0.05)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            equipotential_tau(spine_clock(linear_array(4)), alpha=0)


class TestPipelinedTau:
    def test_constant_in_size(self):
        taus = []
        for n in (16, 256):
            buffered = BufferedClockTree(spine_clock(linear_array(n)))
            taus.append(pipelined_tau(buffered))
        assert taus[0] == pytest.approx(taus[1], rel=0.2)

    def test_equipotential_dwarfs_pipelined_at_scale(self):
        array = linear_array(512)
        tree = spine_clock(array)
        buffered = BufferedClockTree(tree)
        assert equipotential_tau(tree) > 100 * pipelined_tau(buffered)


class TestSchemeParameters:
    def test_assembles_sigma_from_model(self):
        array = linear_array(32)
        tree = spine_clock(array)
        params = scheme_parameters(
            tree, array.communicating_pairs(), SummationModel(m=1.0, eps=0.1),
            delta=1.0, tau=2.0,
        )
        assert params.sigma == pytest.approx(1.1)
        assert params.period == pytest.approx(4.1)

    def test_htree_mesh_period_size_independent(self):
        from repro.core.models import DifferenceModel

        periods = []
        for n in (4, 8, 16):
            array = mesh(n, n)
            tree = htree_for_array(array)
            params = scheme_parameters(
                tree, array.communicating_pairs(), DifferenceModel(), delta=1.0, tau=1.0
            )
            periods.append(params.period)
        assert max(periods) == min(periods)
