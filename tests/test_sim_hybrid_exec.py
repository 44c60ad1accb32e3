"""Tests for executing real programs under hybrid synchronization."""

import numpy as np
import pytest

from repro.arrays.systolic import build_mesh_matmul, build_odd_even_sorter
from repro.core.hybrid import build_hybrid
from repro.sim.hybrid_exec import execute_program_hybrid
from repro.sim.hybrid_sim import simulate_hybrid


class TestFunctionalEquivalence:
    def test_matmul_matches_lockstep(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        b = [[5.0, 6.0], [7.0, 8.0]]
        program = build_mesh_matmul(a, b)
        execution = execute_program_hybrid(program, element_size=2.0)
        assert np.allclose(execution.result, program.run_lockstep())
        assert np.allclose(execution.result, np.array(a) @ np.array(b))

    def test_sorter_matches_lockstep(self):
        program = build_odd_even_sorter([9.0, 2.0, 7.0, 1.0, 5.0])
        execution = execute_program_hybrid(program, element_size=2.0)
        assert execution.result == [1.0, 2.0, 5.0, 7.0, 9.0]

    def test_jitter_does_not_affect_data(self):
        program = build_odd_even_sorter([3.0, 1.0, 2.0])
        execution = execute_program_hybrid(
            program, element_size=2.0, jitter=0.5, seed=4
        )
        assert execution.result == [1.0, 2.0, 3.0]


class TestDependencyGuarantee:
    def test_dependencies_verified(self):
        program = build_mesh_matmul(
            np.eye(3).tolist(), np.ones((3, 3)).tolist()
        )
        execution = execute_program_hybrid(program, element_size=2.0)
        assert execution.verify_dependencies()

    def test_dependencies_hold_under_jitter(self):
        program = build_odd_even_sorter([4.0, 3.0, 2.0, 1.0])
        execution = execute_program_hybrid(
            program, element_size=1.5, jitter=0.8, seed=11
        )
        assert execution.verify_dependencies()

    def test_tampered_times_fail_verification(self):
        program = build_odd_even_sorter([2.0, 1.0])
        execution = execute_program_hybrid(program, element_size=1.0)
        if len(execution.scheme.elements) < 2:
            pytest.skip("needs at least two elements")
        # Corrupt a producer's finish time far into the future.
        some_step = 0
        eid = next(iter(execution.finish_times[some_step]))
        execution.finish_times[some_step][eid] += 1e9
        assert not execution.verify_dependencies()


class TestTiming:
    def test_cycle_constant_in_array_size(self):
        cycles = []
        for n in (4, 8):
            program = build_mesh_matmul(
                np.eye(n).tolist(), np.ones((n, n)).tolist()
            )
            execution = execute_program_hybrid(program, element_size=3.0, delta=1.0)
            cycles.append(execution.cycle_time)
        assert cycles[1] <= cycles[0] * 1.3

    def test_makespan_scales_with_steps(self):
        program = build_odd_even_sorter([5.0, 4.0, 3.0, 2.0, 1.0])
        short = execute_program_hybrid(program, element_size=2.0, steps=6)
        long = execute_program_hybrid(program, element_size=2.0, steps=24)
        assert long.makespan > 3 * short.makespan

    def test_timing_arrays_have_step_shape(self):
        program = build_odd_even_sorter([2.0, 1.0, 3.0])
        execution = execute_program_hybrid(program, element_size=2.0)
        assert len(execution.start_times) == execution.steps
        assert len(execution.finish_times) == execution.steps

    @pytest.mark.parametrize("jitter", [0.0, 0.4])
    def test_timing_equals_simulate_hybrid(self, jitter):
        program = build_mesh_matmul(
            np.eye(4).tolist(), np.ones((4, 4)).tolist()
        )
        execution = execute_program_hybrid(
            program, element_size=2.0, delta=1.5, m=0.75, jitter=jitter,
            seed=7, steps=20,
        )
        run = simulate_hybrid(
            build_hybrid(program.array, element_size=2.0), 20, delta=1.5,
            m=0.75, jitter=jitter, seed=7,
        )
        assert run.elements > 1
        assert execution.makespan == run.completion_time
        assert execution.cycle_time == run.cycle_time

    def test_rejects_bad_args(self):
        program = build_odd_even_sorter([1.0, 2.0])
        with pytest.raises(ValueError):
            execute_program_hybrid(program, delta=-1)
