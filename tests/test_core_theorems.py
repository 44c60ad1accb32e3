"""The paper's theorems, asserted on concrete sweeps.

These are the headline claims:

* Theorem 2 — H-tree + difference model: size-independent period.
* Theorem 3 — spine + summation model: size-independent period for 1D.
* Fig. 3(a) remark — dissection + summation model: skew grows linearly.
* Theorem 6 — sigma = Omega(W(N)).
"""

import pytest

from repro.analysis.scaling import classify_growth
from repro.core.theorems import (
    fig3a_counterexample_sweep,
    theorem2_sweep,
    theorem3_sweep,
    theorem6_bound,
    theorem6_sweep,
)


class TestTheorem2:
    @pytest.mark.parametrize("topology", ["linear", "mesh", "hex"])
    def test_sigma_zero_for_all_topologies(self, topology):
        records = theorem2_sweep([2, 4, 8], topology=topology)
        assert all(r.sigma == pytest.approx(0.0) for r in records)

    def test_period_constant(self):
        records = theorem2_sweep([2, 4, 8, 16], topology="mesh", delta=1.0, tau=1.0)
        periods = [r.period for r in records]
        assert max(periods) == min(periods) == pytest.approx(2.0)

    def test_tree_depth_grows_but_period_does_not(self):
        records = theorem2_sweep([4, 16], topology="mesh")
        assert records[1].extra["P"] > records[0].extra["P"]
        assert records[1].period == records[0].period


class TestTheorem3:
    def test_sigma_constant(self):
        records = theorem3_sweep([4, 16, 64, 256, 1024])
        sigmas = [r.sigma for r in records]
        assert max(sigmas) == pytest.approx(min(sigmas))

    def test_sigma_value_is_g_of_spacing(self):
        records = theorem3_sweep([8], m=1.0, eps=0.25, spacing=2.0)
        assert records[0].sigma == pytest.approx(1.25 * 2.0)

    def test_growth_classified_constant(self):
        records = theorem3_sweep([4, 8, 16, 32, 64, 128])
        fit = classify_growth([r.size for r in records], [r.sigma for r in records])
        assert fit.law == "constant"


class TestFig3aCounterexample:
    def test_sigma_grows_linearly(self):
        records = fig3a_counterexample_sweep([8, 16, 32, 64, 128])
        fit = classify_growth([r.size for r in records], [r.sigma for r in records])
        assert fit.law == "linear"

    def test_max_s_spans_array(self):
        records = fig3a_counterexample_sweep([64])
        assert records[0].extra["max_s"] >= 32

    def test_dissection_loses_to_spine(self):
        spine = theorem3_sweep([128])[0].sigma
        dissection = fig3a_counterexample_sweep([128])[0].sigma
        assert dissection > 50 * spine


class TestTheorem6:
    def test_bound_formula(self):
        assert theorem6_bound(16.0, beta=0.5) == pytest.approx(0.5 * 16 / 8.0)

    def test_bound_monotone_in_width(self):
        assert theorem6_bound(20, 0.1) > theorem6_bound(10, 0.1)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            theorem6_bound(4, beta=0)
        with pytest.raises(ValueError):
            theorem6_bound(4, beta=float("nan"))
        with pytest.raises(ValueError):
            theorem6_bound(-1, beta=0.1)

    def test_sweep_mesh_grows_linear_flat(self):
        records = theorem6_sweep([4, 6, 8], families=["linear", "mesh"])
        linear = [r for r in records if r.label == "t6-linear"]
        mesh_records = [r for r in records if r.label == "t6-mesh"]
        assert max(r.sigma for r in linear) == pytest.approx(
            min(r.sigma for r in linear)
        )
        assert mesh_records[-1].sigma > 1.5 * mesh_records[0].sigma

    def test_sweep_sigma_respects_floor(self):
        for r in theorem6_sweep([4, 8], families=["mesh"]):
            assert r.sigma >= r.extra["theorem6_floor"] - 1e-9

    def test_tree_family_runs(self):
        records = theorem6_sweep([4, 8], families=["tree"])
        assert all(r.extra["bisection_width"] >= 1 for r in records)
