"""Tests for the executable Section V-B lower-bound proof."""

import math

import pytest

from repro.arrays.topologies import linear_array, mesh
from repro.clocktree.builders import kdtree_clock, serpentine_clock
from repro.clocktree.htree import htree_for_array
from repro.clocktree.spine import spine_clock
from repro.core.lower_bound import (
    LowerBoundCertificate,
    lower_bound_value,
    prove_skew_lower_bound,
)


class TestLowerBoundValue:
    def test_linear_in_n(self):
        v8 = lower_bound_value(8, beta=0.1)
        v16 = lower_bound_value(16, beta=0.1)
        v32 = lower_bound_value(32, beta=0.1)
        assert v16 / max(v8, 1e-9) >= 1.5
        assert v32 / v16 == pytest.approx(2.0, rel=0.5)

    def test_scales_with_beta(self):
        assert lower_bound_value(32, 0.2) == pytest.approx(2 * lower_bound_value(32, 0.1))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            lower_bound_value(1, 0.1)
        with pytest.raises(ValueError):
            lower_bound_value(8, 0)
        with pytest.raises(ValueError):
            lower_bound_value(8, float("nan"))
        with pytest.raises(ValueError):
            lower_bound_value(8, 0.1, separator_fraction=0.95)


class TestCertificatesOnMeshes:
    @pytest.mark.parametrize("scheme", [htree_for_array, serpentine_clock, kdtree_clock])
    @pytest.mark.parametrize("n", [4, 8])
    def test_proof_executes_and_checks(self, scheme, n):
        array = mesh(n, n)
        tree = scheme(array)
        cert = prove_skew_lower_bound(tree, array, beta=0.1)
        cert.check()  # raises on any violated step
        assert cert.n_cells == n * n
        assert cert.branch in ("circle", "bisection")
        assert cert.sigma >= cert.bound

    def test_sigma_exceeds_tree_independent_floor(self):
        # Any concrete tree's sigma must beat the Omega(n) floor.
        for n in (8, 12, 16):
            array = mesh(n, n)
            floor = lower_bound_value(n, beta=0.1)
            for builder in (htree_for_array, serpentine_clock, kdtree_clock):
                cert = prove_skew_lower_bound(builder(array), array, beta=0.1)
                assert cert.sigma >= floor - 1e-9, (n, builder.__name__)

    def test_sigma_grows_with_n(self):
        sigmas = []
        for n in (4, 8, 16):
            array = mesh(n, n)
            best = min(
                prove_skew_lower_bound(b(array), array, beta=0.1).sigma
                for b in (htree_for_array, serpentine_clock, kdtree_clock)
            )
            sigmas.append(best)
        assert sigmas[1] > 1.4 * sigmas[0]
        assert sigmas[2] > 1.4 * sigmas[1]

    def test_separator_fraction_reported(self):
        array = mesh(6, 6)
        cert = prove_skew_lower_bound(serpentine_clock(array), array, beta=0.1)
        assert 0.5 <= cert.separator_fraction <= 0.75

    def test_radius_is_sigma_over_beta(self):
        array = mesh(6, 6)
        cert = prove_skew_lower_bound(serpentine_clock(array), array, beta=0.2)
        assert cert.radius == pytest.approx(cert.sigma / 0.2)


class TestCertificateValidation:
    def test_check_rejects_fabricated_violation(self):
        cert = LowerBoundCertificate(
            n_cells=16, beta=0.1, sigma=1.0, branch="circle",
            separator_fraction=0.6, radius=10.0, cells_in_circle=10,
            crossing_edges=0, straddle_verified=True, packing_verified=True,
            balance_fraction=0.6, bound=2.0,
        )
        with pytest.raises(AssertionError, match="lower-bound violation"):
            cert.check()

    def test_check_rejects_failed_packing(self):
        cert = LowerBoundCertificate(
            n_cells=16, beta=0.1, sigma=5.0, branch="circle",
            separator_fraction=0.6, radius=1.0, cells_in_circle=100,
            crossing_edges=0, straddle_verified=True, packing_verified=False,
            balance_fraction=0.6, bound=1.0,
        )
        with pytest.raises(AssertionError, match="packing"):
            cert.check()

    def test_check_rejects_failed_straddle(self):
        cert = LowerBoundCertificate(
            n_cells=16, beta=0.1, sigma=5.0, branch="bisection",
            separator_fraction=0.6, radius=1.0, cells_in_circle=1,
            crossing_edges=4, straddle_verified=False, packing_verified=True,
            balance_fraction=0.6, bound=1.0,
        )
        with pytest.raises(AssertionError, match="straddle"):
            cert.check()

    def test_rejects_cell_missing_from_tree(self):
        array = mesh(3, 3)
        tree = spine_clock(linear_array(4))
        with pytest.raises(ValueError, match="not a node of CLK"):
            prove_skew_lower_bound(tree, array, beta=0.1)

    def test_rejects_nonpositive_beta(self):
        array = mesh(3, 3)
        with pytest.raises(ValueError):
            prove_skew_lower_bound(serpentine_clock(array), array, beta=0)


class TestOtherTopologies:
    @pytest.mark.parametrize("n", [6, 8])
    def test_hex_array_certificates(self, n):
        """Hex arrays have denser edges; a larger boundary capacity keeps
        the packing check honest and the proof still executes."""
        from repro.arrays.topologies import hex_array

        array = hex_array(n, n)
        cert = prove_skew_lower_bound(
            serpentine_clock(array), array, beta=0.1, capacity_per_radius=16.0
        )
        cert.check()

    def test_torus_certificates(self):
        from repro.arrays.topologies import torus

        array = torus(8, 8)
        for builder in (serpentine_clock, kdtree_clock):
            cert = prove_skew_lower_bound(
                builder(array), array, beta=0.1, capacity_per_radius=16.0
            )
            cert.check()

    def test_torus_wrap_edges_raise_sigma(self):
        """The torus's wraparound pairs are far apart on any serpentine
        trunk, so its sigma dominates the open mesh's."""
        from repro.arrays.topologies import mesh, torus

        open_mesh = mesh(8, 8)
        wrapped = torus(8, 8)
        sigma_open = prove_skew_lower_bound(
            serpentine_clock(open_mesh), open_mesh, beta=0.1
        ).sigma
        sigma_torus = prove_skew_lower_bound(
            serpentine_clock(wrapped), wrapped, beta=0.1, capacity_per_radius=16.0
        ).sigma
        assert sigma_torus > 2 * sigma_open


class TestContrastWithOneDimensional:
    def test_linear_array_spine_escapes_growth(self):
        """The 1D contrast: the same machinery applied to a spine-clocked
        linear array yields sigma constant in n — no Omega(n) phenomenon."""
        sigmas = []
        for n in (16, 64, 256):
            array = linear_array(n)
            tree = spine_clock(array)
            pairs = array.communicating_pairs()
            sigma = max(0.1 * tree.path_length(a, b) for a, b in pairs)
            sigmas.append(sigma)
        assert max(sigmas) == pytest.approx(min(sigmas))
