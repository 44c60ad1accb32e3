"""Analysis utilities: scheme evaluation, growth-law fitting, Monte Carlo.

The paper's results are asymptotic ("constant", "Omega(n)", "sqrt(n)"); the
benchmarks turn measured sweeps into claims via :mod:`repro.analysis.scaling`
(least-squares classification of growth laws), evaluate whole schemes via
:mod:`repro.analysis.skew`, and quantify stochastic experiments via
:mod:`repro.analysis.montecarlo`.
"""

from repro.analysis.scaling import GrowthFit, classify_growth, fit_growth
from repro.analysis.skew import SchemeEvaluation, compare_schemes, evaluate_scheme
from repro.analysis.montecarlo import (
    CompiledTrialContext,
    MonteCarloSummary,
    run_trials,
    summarize,
)
from repro.analysis.crossover import Crossover, find_crossover, winning_factor
from repro.analysis.perf import (
    KernelTiming,
    gate_failures,
    run_perf_suite,
    speedup_by_kernel,
    write_bench_results,
)

__all__ = [
    "GrowthFit",
    "classify_growth",
    "fit_growth",
    "SchemeEvaluation",
    "evaluate_scheme",
    "compare_schemes",
    "CompiledTrialContext",
    "MonteCarloSummary",
    "run_trials",
    "summarize",
    "Crossover",
    "find_crossover",
    "winning_factor",
    "KernelTiming",
    "gate_failures",
    "run_perf_suite",
    "speedup_by_kernel",
    "write_bench_results",
]
