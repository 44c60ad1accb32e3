"""Per-edge setup/hold slack, statically — the A5 inequalities as vectors.

For a directed COMM edge ``u -> v`` with data-path lag
``lag = delta + wire + padding`` and clock period ``T``, the clocked
simulator's latch conditions (:mod:`repro.sim.clocked`) are:

* **setup** — the sender's tick ``k-1`` output must arrive by the
  receiver's tick ``k``:  ``offset(u) - offset(v) + lag <= T``;
* **hold** — the sender's tick ``k`` output must *not* arrive by the
  receiver's tick ``k``:  ``offset(u) + lag > offset(v)``.

Two evaluation modes, both pure arithmetic (no simulation):

* **exact** (a.k.a. schedule mode) — uses the concrete schedule offsets.
  Complete *and* sound for affine schedules: an edge is flagged iff the
  simulator observes a violation on it.
* **bound** (model mode) — replaces the offset difference with the skew
  model's per-pair upper bound ``sigma_ub(u, v)`` (the batched LCA kernels
  of :mod:`repro.core.models`), i.e. the paper's actual derivation: skew is
  only known as a bracket.  When the schedule's offsets are an admissible
  realization of the model (``|lead| <= sigma_ub`` on every pair), bound
  slacks never exceed exact slacks and bound-clean implies exact-clean
  implies simulated-clean.  A concrete buffered tree can drift outside its
  abstract model (buffer jitter the model does not cover), which is why
  verdicts are driven by exact mode and bound mode adds robustness
  warnings (``*-possible`` flags) on top.

Hold races are *directional*: only a sender whose clock leads can race,
and under A11 the skew floor ``beta * s <= sigma`` means an edge whose lag
does not clear ``sigma_lb`` can race in some admissible realization no
matter how the tree is tuned — only added delay (padding) fixes it.
:func:`pad_for_races` computes that padding from the bounds.

The minimum feasible period is the smallest ``T`` with every setup slack
non-negative.  Setup slack is monotone increasing in ``T``, so
:func:`minimum_feasible_period` runs a monotone bisection on the slack
vector (with :func:`minimum_feasible_period_closed_form` kept as the
algebraic oracle the tests compare against).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from repro.sta.design import Design, EdgeKey

#: The clocked simulator's comparison tolerance (repro.sim.clocked uses
#: ``<= t + 1e-12`` when deciding whether a value has arrived); slack
#: classification mirrors it so static and simulated verdicts agree.
SIM_TOL = 1e-12

#: Flags a slack row can carry.
FLAG_STALE = "stale"                    # exact setup slack negative
FLAG_STALE_POSSIBLE = "stale-possible"  # bound setup slack negative
FLAG_RACE = "race"                      # exact hold slack non-positive
FLAG_RACE_POSSIBLE = "race-possible"    # bound hold slack non-positive
FLAG_RACE_FLOOR = "race-floor"          # A11 floor alone defeats the lag

#: Bit order of the STA report's per-edge ``flags`` column: bit ``i`` is
#: set iff the edge carries ``FLAG_BITS[i]``.  Decoding a bitmask in this
#: order yields the flags in the order :meth:`SlackAnalysis.rows` lists
#: them.
FLAG_BITS: Tuple[str, ...] = (
    FLAG_STALE,
    FLAG_STALE_POSSIBLE,
    FLAG_RACE,
    FLAG_RACE_POSSIBLE,
    FLAG_RACE_FLOOR,
)


def decode_flags(bits: int) -> Tuple[str, ...]:
    """The flag names a ``flags``-column bitmask stands for."""
    return tuple(flag for i, flag in enumerate(FLAG_BITS) if bits >> i & 1)


@dataclass(frozen=True)
class EdgeFlags:
    """The per-edge verdict classification, one boolean mask per flag.

    ``stale``/``race`` are the exact-mode violations; the ``*_possible``
    masks hold the bound-mode problems of edges that are exact-clean in
    that direction; ``race_floor`` is the A11 floor.  ``robust`` is
    "clean even at the model's worst-case skew" (every bound-mode slack
    clears the tolerance).
    """

    stale: np.ndarray
    stale_possible: np.ndarray
    race: np.ndarray
    race_possible: np.ndarray
    race_floor: np.ndarray
    robust: bool

    def counts(self) -> Dict[str, int]:
        """Edges per flag, keyed as the STA report's ``counts`` block."""
        return {
            "stale": int(np.count_nonzero(self.stale)),
            "race": int(np.count_nonzero(self.race)),
            "stale_possible": int(np.count_nonzero(self.stale_possible)),
            "race_possible": int(np.count_nonzero(self.race_possible)),
            "race_floor": int(np.count_nonzero(self.race_floor)),
        }

    def bits(self) -> np.ndarray:
        """The int64 flag bitmask per edge (bit order :data:`FLAG_BITS`)."""
        out = np.zeros(len(self.stale), dtype=np.int64)
        masks = (self.stale, self.stale_possible, self.race,
                 self.race_possible, self.race_floor)
        for i, mask in enumerate(masks):
            out[mask] |= 1 << i
        return out


def race_floor_mask(lag: np.ndarray, sigma_lb: np.ndarray) -> np.ndarray:
    """Edges whose lag does not clear the A11 skew floor (period-free)."""
    return sigma_lb >= lag - SIM_TOL


def classify_edges(
    setup_exact: np.ndarray,
    hold_exact: np.ndarray,
    setup_bound: np.ndarray,
    hold_bound: np.ndarray,
    race_floor: np.ndarray,
) -> EdgeFlags:
    """The one vectorized stale/race/possible/floor classification.

    Every consumer of flag counts (the full report, the ECO session, the
    tiled summary) calls this; :meth:`SlackAnalysis.rows` re-derives the
    same flags one scalar row at a time and stays the oracle.
    """
    stale = setup_exact < -SIM_TOL
    race = hold_exact <= SIM_TOL
    return EdgeFlags(
        stale=stale,
        stale_possible=(setup_bound < -SIM_TOL) & ~stale,
        race=race,
        race_possible=(hold_bound <= SIM_TOL) & ~race,
        race_floor=race_floor,
        robust=bool(
            (setup_bound >= -SIM_TOL).all() and (hold_bound > SIM_TOL).all()
        ),
    )


@dataclass(frozen=True)
class EdgeSlack:
    """One edge's static timing row."""

    edge: EdgeKey
    lag: float
    sigma_ub: float
    sigma_lb: float
    offset_lead: float
    setup_slack: float
    hold_slack: float
    setup_slack_bound: float
    hold_slack_bound: float
    flags: Tuple[str, ...]

    @property
    def clean(self) -> bool:
        """No exact-mode violation (possible-mode flags are warnings)."""
        return FLAG_STALE not in self.flags and FLAG_RACE not in self.flags


@dataclass(frozen=True)
class SlackAnalysis:
    """The full slack vector of a design, plus summary accessors.

    All arrays are float64, aligned with ``edges`` (the COMM graph's
    stable directed-edge order), and read-only.
    """

    period: float
    edges: Tuple[EdgeKey, ...]
    lag: np.ndarray
    sigma_ub: np.ndarray
    sigma_lb: np.ndarray
    offset_lead: np.ndarray
    setup_exact: np.ndarray
    hold_exact: np.ndarray
    setup_bound: np.ndarray
    hold_bound: np.ndarray

    # -- classification --------------------------------------------------
    @cached_property
    def flags(self) -> EdgeFlags:
        """The vectorized classification of every edge (computed once)."""
        return classify_edges(
            self.setup_exact,
            self.hold_exact,
            self.setup_bound,
            self.hold_bound,
            race_floor_mask(self.lag, self.sigma_lb),
        )

    @property
    def stale_mask(self) -> np.ndarray:
        """Edges the simulator will read stale (setup) data on."""
        return self.flags.stale

    @property
    def race_mask(self) -> np.ndarray:
        """Edges the simulator will race through (hold) on."""
        return self.flags.race

    @property
    def race_floor_mask(self) -> np.ndarray:
        """Edges whose lag does not clear the A11 skew floor — no tree
        tuning can make them safe; padding is mandatory."""
        return self.flags.race_floor

    def stale_edges(self) -> List[EdgeKey]:
        return [e for e, bad in zip(self.edges, self.stale_mask) if bad]

    def race_edges(self) -> List[EdgeKey]:
        return [e for e, bad in zip(self.edges, self.race_mask) if bad]

    @property
    def timing_clean(self) -> bool:
        return not (bool(self.stale_mask.any()) or bool(self.race_mask.any()))

    @property
    def robust_clean(self) -> bool:
        """Clean even at the model's worst-case skew (bound mode)."""
        return self.flags.robust

    @property
    def worst_setup_slack(self) -> float:
        return float(self.setup_exact.min()) if len(self.edges) else 0.0

    @property
    def worst_hold_slack(self) -> float:
        return float(self.hold_exact.min()) if len(self.edges) else 0.0

    def rows(self) -> List[EdgeSlack]:
        """Every edge as an :class:`EdgeSlack`, classified one scalar row
        at a time — the oracle for :func:`classify_edges`."""
        out: List[EdgeSlack] = []
        for i, edge in enumerate(self.edges):
            lag = float(self.lag[i])
            sigma_lb = float(self.sigma_lb[i])
            setup = float(self.setup_exact[i])
            hold = float(self.hold_exact[i])
            setup_bound = float(self.setup_bound[i])
            hold_bound = float(self.hold_bound[i])
            flags: List[str] = []
            if setup < -SIM_TOL:
                flags.append(FLAG_STALE)
            elif setup_bound < -SIM_TOL:
                flags.append(FLAG_STALE_POSSIBLE)
            if hold <= SIM_TOL:
                flags.append(FLAG_RACE)
            elif hold_bound <= SIM_TOL:
                flags.append(FLAG_RACE_POSSIBLE)
            if sigma_lb >= lag - SIM_TOL:
                flags.append(FLAG_RACE_FLOOR)
            out.append(
                EdgeSlack(
                    edge=edge,
                    lag=lag,
                    sigma_ub=float(self.sigma_ub[i]),
                    sigma_lb=sigma_lb,
                    offset_lead=float(self.offset_lead[i]),
                    setup_slack=setup,
                    hold_slack=hold,
                    setup_slack_bound=setup_bound,
                    hold_slack_bound=hold_bound,
                    flags=tuple(flags),
                )
            )
        return out


def edge_lags(design: Design) -> np.ndarray:
    """The per-edge data-path lag vector (delta + wire + padding)."""
    edges = design.edges()
    return np.fromiter(
        (design.edge_lag(e) for e in edges), dtype=np.float64, count=len(edges)
    )


def _edge_vectors(
    design: Design,
) -> Tuple[List[EdgeKey], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(edges, lag, offset_lead, sigma_ub, sigma_lb) for a design — the
    shared precomputation of every analysis entry point."""
    edges = design.edges()
    lag = edge_lags(design)
    offsets = {c: design.schedule.offset(c) for c in design.schedule.cells()}
    lead = np.fromiter(
        (offsets[u] - offsets[v] for u, v in edges),
        dtype=np.float64,
        count=len(edges),
    )
    if edges:
        sigma_ub = design.model.skew_bound_batch(design.tree, edges)
        sigma_lb = design.model.skew_lower_bound_batch(design.tree, edges)
    else:  # pragma: no cover - degenerate empty graph
        sigma_ub = np.empty(0, dtype=np.float64)
        sigma_lb = np.empty(0, dtype=np.float64)
    return edges, lag, lead, sigma_ub, sigma_lb


def _frozen_analysis(
    period: float,
    edges: List[EdgeKey],
    lag: np.ndarray,
    lead: np.ndarray,
    sigma_ub: np.ndarray,
    sigma_lb: np.ndarray,
) -> SlackAnalysis:
    """The read-only analysis of the four ingredient vectors at a period
    (takes ownership of them): the one constructor behind
    :func:`analyze_slack` and :meth:`repro.sta.eco.ECOSession.analysis`."""
    hold_exact = lead + lag
    arrays = (lag, sigma_ub, sigma_lb, lead, period - hold_exact, hold_exact,
              period - (sigma_ub + lag), lag - sigma_ub)
    for arr in arrays:
        arr.flags.writeable = False
    return SlackAnalysis(period, tuple(edges), *arrays)  # field order


def analyze_slack(design: Design) -> SlackAnalysis:
    """Compute every edge's setup/hold slack in both modes, vectorized."""
    return _frozen_analysis(design.period, *_edge_vectors(design))


def _period_needs(design: Design, mode: str) -> np.ndarray:
    """Per-edge minimum period requirement in the given mode."""
    edges, lag, lead, sigma_ub, _ = _edge_vectors(design)
    if mode == "exact":
        return lead + lag
    if mode == "bound":
        return sigma_ub + lag
    raise ValueError(f"unknown slack mode {mode!r} (exact|bound)")


def minimum_feasible_period_closed_form(design: Design, mode: str = "exact") -> float:
    """Algebraic oracle: the largest per-edge period requirement."""
    needs = _period_needs(design, mode)
    return float(needs.max(initial=0.0))


def _bisect_period(
    needs_max: float,
    tol: float = 1e-9,
    max_iterations: int = 200,
) -> float:
    """Bisection core shared by the full and incremental analyses.

    Feasibility of a period T is ``all(needs <= T + SIM_TOL)``, which for
    a float vector is exactly ``max(needs) <= T + SIM_TOL`` (the max is an
    element of the vector), so the whole search depends only on the
    scalar maximum.  That is what lets :class:`repro.sta.eco.ECOSession`
    answer ``minimum_feasible_period`` in O(log) from its running
    extremum while staying bit-identical to the O(edges) path here: same
    predicate decisions, same iterates, same returned float.
    """
    if not math.isfinite(needs_max):
        raise ValueError(f"per-edge period requirement is not finite: {needs_max!r}")

    def feasible(period: float) -> bool:
        return needs_max <= period + SIM_TOL

    lo, hi = 0.0, 1.0
    iterations = 0
    while not feasible(hi):
        lo, hi = hi, hi * 2.0
        iterations += 1
        if iterations > max_iterations:  # pragma: no cover - defensive
            raise RuntimeError("period bracket failed to close")
    if feasible(lo):
        return lo if lo > 0.0 else max(needs_max, 0.0)
    scale = max(1.0, hi)
    while hi - lo > tol * scale and iterations < max_iterations:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
        iterations += 1
    return hi


def minimum_feasible_period(
    design: Design,
    mode: str = "exact",
    tol: float = 1e-9,
    max_iterations: int = 200,
) -> float:
    """The smallest period with a non-negative setup-slack vector, found by
    monotone bisection.

    Setup slack is affine (hence monotone) in the period, so feasibility —
    ``all(T >= need_e)`` — is a monotone predicate and bisection converges
    to the closed-form answer; the bisection exists because realistic slack
    models (duty-cycle constraints, level-sensitive borrowing) are monotone
    but not closed-form, and the property tests pin the two to within
    ``tol`` on the affine case.
    """
    needs = _period_needs(design, mode)
    if len(needs) == 0:
        return 0.0
    return _bisect_period(float(needs.max()), tol=tol, max_iterations=max_iterations)


def pad_for_races(
    design: Design,
    margin: float = 1e-6,
) -> Dict[EdgeKey, float]:
    """Padding that clears every hold hazard at the model's worst case.

    The hold condition is ``lag > offset(v) - offset(u) = -lead``, and at
    the model's worst case ``lag > sigma_ub``; so each edge needs
    ``pad = max(0, need - (delta + wire))`` with
    ``need = max(-offset_lead, sigma_ub) + t_hold + margin``.  Padding never
    hurts hold safety; it raises the setup requirement, which the feasible
    period then covers (compute the period *after* padding).
    """
    edges, lag, lead, sigma_ub, _ = _edge_vectors(design)
    base = lag - np.fromiter(
        (design.edge_padding.get(e, 0.0) for e in edges),
        dtype=np.float64,
        count=len(edges),
    )
    need = np.maximum(-lead, sigma_ub) + design.discipline.t_hold + margin
    pad = np.maximum(0.0, need - base)
    return {e: float(p) for e, p in zip(edges, pad) if p > 0.0}
