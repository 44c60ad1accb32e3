"""The four benchmark workloads: seeded inputs, one op, and its check.

Each workload is a closed loop with one caller: the next op starts only
after the previous one returned and was checked.  Every input comes from
the benchmark's ``--seed`` and the op index, and the program receives only
the generated argv lists or designs.  Checks run off the clock; a failed
check, an exception or an unexpected exit code counts the op as failed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from calibrate import Calibration
from tracing import Recorder

#: Period-requirement agreement the repo's own tests hold bisection to.
PERIOD_RTOL = 1e-6
#: Calibration kernel time per second of timed wall in a calibrated phase.
CALIBRATION_SHARE = 0.15


def op_seed(seed: int, workload: str, i: int) -> int:
    """The design seed of op ``i`` (or ECO session ``i``)."""
    return random.Random(f"perfbench|{workload}|{seed}|{i}").randrange(2**31)


def sampled(seed: int, workload: str, i: int, every: int) -> bool:
    """Whether op ``i`` is in the seeded oracle sample (about 1 in ``every``)."""
    return random.Random(f"perfbench|sample|{workload}|{seed}|{i}").randrange(every) == 0


def dyadic_services(seed: int, n: int) -> List[float]:
    """``n`` per-cell service times in eighth-steps of [1, 2): every
    max-plus answer over them is exact in binary floating point."""
    rng = random.Random(f"perfbench|service|{seed}")
    return [1.0 + rng.randrange(8) / 8 for _ in range(n)]


def _reject_constant(name: str) -> Any:
    raise ValueError(f"non-finite JSON constant {name}")


def load_strict(path: str) -> Any:
    """Parse an RFC 8259 JSON file: NaN and infinities are errors."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def artifact_bytes(obj: Any) -> int:
    """Size of ``obj`` serialized the way the CLI writes its artifacts."""
    return len((json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


class Meter:
    """Times ops and the other timed units of one measurement phase.

    The phase ends once ``seconds`` of timed wall time have passed and at
    least ``min_ops`` ops ran, or at ``max_wall`` regardless.  With a
    ``recorder`` every timed unit is also a span-tracing unit.  With a
    ``calibration`` the calibration kernel runs off the clock after each
    timed unit, until its time is ``CALIBRATION_SHARE`` of the timed wall.
    """

    def __init__(
        self,
        seconds: float,
        min_ops: int,
        max_wall: float,
        recorder: Optional[Recorder] = None,
        calibration: Optional[Calibration] = None,
    ) -> None:
        self.seconds = seconds
        self.min_ops = min_ops
        self.max_wall = max_wall
        self.recorder = recorder
        self.calibration = calibration
        self.latencies: List[float] = []
        self.kinds: List[str] = []
        #: ``(start, seconds)`` of every timed unit, and which are ops.
        self.units: List[Tuple[float, float]] = []
        self.op_units: List[int] = []
        self.artifact_bytes: List[int] = []
        self.wall = 0.0
        self.failed = 0
        self.failures: List[str] = []
        self._next_unit = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def done(self) -> bool:
        if self.wall >= self.max_wall:
            return True
        return self.wall >= self.seconds and self.attempted >= self.min_ops

    def timed(self, kind: str, fn: Callable[..., Any], *args: Any) -> Tuple[bool, Any, float]:
        """Run ``fn(*args)`` on the clock: ``(ok, result, seconds)``."""
        unit = contextlib.nullcontext()
        if self.recorder is not None:
            unit = self.recorder.unit(self._next_unit, kind)
            self._next_unit += 1
        ok, result = True, None
        t0 = time.perf_counter()
        try:
            with unit:
                result = fn(*args)
        except Exception as exc:  # an op that raises is a failed op
            ok, result = False, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        self.wall += dt
        self.units.append((t0, dt))
        if self.calibration is not None:
            self.calibration.keep_up(self.wall, CALIBRATION_SHARE)
        return ok, result, dt

    def op(self, kind: str, fn: Callable[..., Any], *args: Any) -> Tuple[bool, Any]:
        ok, result, dt = self.timed("op", fn, *args)
        self.op_units.append(len(self.units) - 1)
        self.latencies.append(dt)
        self.kinds.append(kind)
        if not ok:
            self.fail(str(result))
        return ok, result

    def rescaled(self) -> Tuple[List[float], float]:
        """Op latencies and timed wall in reference-host seconds, each unit
        scaled by the calibration kernels run next to it."""
        if self.calibration is None:
            raise ValueError("an uncalibrated phase has no reference times")
        scale = self.calibration.scaler()
        units = [dt * scale(t0, t0 + dt) for t0, dt in self.units]
        return [units[i] for i in self.op_units], sum(units)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(reason)

    def check(self, verify: Callable[..., Tuple[List[str], Optional[int]]], *args: Any) -> None:
        """Run the off-clock check of the op just run: ``verify(*args)``
        returns ``(errors, artifact bytes or None)``.  Errors, or a check
        that raises, count the op as failed; otherwise its artifact size is
        recorded."""
        try:
            errors, size = verify(*args)
        except Exception as exc:  # e.g. an unreadable artifact
            errors, size = [f"check raised {type(exc).__name__}: {exc}"], None
        if errors:
            self.fail("; ".join(errors[:3]))
        elif size is not None:
            self.artifact_bytes.append(size)


class Workload:
    """One closed-loop workload."""

    name = ""
    why = ""
    op_mix = ""
    modules: Tuple[str, ...] = ()

    def setup(self, seed: int, count: int = 4096) -> List[int]:
        """Import what the op needs and generate the per-op seeds."""
        for module in self.modules:
            importlib.import_module(module)
        return [op_seed(seed, self.name, i) for i in range(count)]

    def shape(self) -> Dict[str, int]:
        """Cells and directed COMM edges of one op's design."""
        design = self.design(0)
        return {"cells": len(design.array.comm.nodes()), "edges": len(design.edges())}

    def design(self, seed: int) -> Any:
        raise NotImplementedError

    def run(self, meter: Meter, seeds: List[int], seed: int, scratch: str) -> None:
        raise NotImplementedError


def _quiet_cli(argv: List[str]) -> int:
    """``repro.cli.main(argv)`` with its stdout captured, as a caller
    embedding the CLI would run it."""
    from repro import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class _CliWorkload(Workload):
    """Ops that run one ``repro`` verb in-process and write ``--json``."""

    verb = ""
    sample_every = 8

    def __init__(self, size: int) -> None:
        self.size = size

    def design(self, seed: int) -> Any:
        from repro import sta

        return sta.design_for_workload("matmul", size=self.size, seed=seed)

    def argv(self, s: int, path: str) -> List[str]:
        return [self.verb, "--workload", "matmul", "--size", str(self.size),
                "--seed", str(s), "--json", path]

    def run(self, meter: Meter, seeds: List[int], seed: int, scratch: str) -> None:
        path = os.path.join(scratch, f"{self.name}.json")
        for i in range(len(seeds)):
            if meter.done():
                break
            s = seeds[i]
            if os.path.exists(path):
                os.remove(path)
            ok, code = meter.op(self.verb, _quiet_cli, self.argv(s, path))
            if ok:
                oracle = sampled(seed, self.name, i, self.sample_every)
                meter.check(self.verify, code, path, s, oracle)

    def verify(self, code: int, path: str, s: int, oracle: bool) -> Tuple[List[str], int]:
        """Errors found in op output, and the artifact's size."""
        if code != 0:
            return [f"repro {self.verb} exited {code}"], 0
        payload = load_strict(path)
        if len(payload) != 1:
            return [f"expected 1 report, got {len(payload)}"], 0
        return self.verify_report(payload[0], s, oracle), os.path.getsize(path)

    def verify_report(self, report: Dict[str, Any], s: int, oracle: bool) -> List[str]:
        raise NotImplementedError


class StaSignoff(_CliWorkload):
    name = "sta-signoff"
    why = ("the full STA read path a user runs per design (build, slack, DRC, "
           "period bisection, report, schema walk, serialization)")
    op_mix = "one `repro sta --workload matmul --size N --seed s --json f` per op"
    modules = ("repro.cli", "repro.obs.schema", "repro.sta", "repro.sta.report")
    verb = "sta"
    sample_every = 4

    def verify_report(self, report: Dict[str, Any], s: int, oracle: bool) -> List[str]:
        from repro import sta
        from repro.obs import schema

        errors = schema.validate_sta_report(report)
        if report["verdict"] != "clean":  # the design is clean by construction
            errors.append(f"verdict {report['verdict']!r}")
        if oracle and not errors:
            design = self.design(s)
            for mode in ("exact", "bound"):
                closed = sta.minimum_feasible_period_closed_form(design, mode)
                reported = report["slack"][f"min_feasible_period_{mode}"]
                if abs(reported - closed) > PERIOD_RTOL * max(1.0, closed):
                    errors.append(f"{mode} period {reported!r} vs closed form {closed!r}")
        return errors


class FlowSelftimed(_CliWorkload):
    name = "flow-selftimed"
    why = ("the self-timed static path: deadlock check, Howard MCM, Karp "
           "oracle, steady-state simulation and transient check per design")
    op_mix = "one `repro flow --workload matmul --size N --seed s --json f` per op"
    modules = ("repro.cli", "repro.obs.schema", "repro.sta", "repro.sta.flowreport")
    verb = "flow"
    sample_every = 8

    def verify_report(self, report: Dict[str, Any], s: int, oracle: bool) -> List[str]:
        from repro.obs import schema
        from repro.sta import flow

        errors = schema.validate_flow_report(report)
        if errors:
            return errors
        if report["deadlock"]["dead"] or not report["agreement"]["exact"]:
            return ["flow report is dead or inexact"]
        if oracle:
            # The CLI's timing model: dyadic per-cell services drawn from
            # the run seed, uniform wire delay 0.5, channel depth 2.
            comm = self.design(s).array.comm
            rng = random.Random(f"{s}|flow|matmul")
            service = {c: 1.0 + rng.randrange(8) / 8 for c in comm.nodes()}
            karp = flow.mcm_karp(flow.flow_graph(comm, service, 0.5, 2))
            if karp != report["mcm"]["cycle_time"]:
                errors.append(f"cycle time {report['mcm']['cycle_time']!r} vs Karp {karp!r}")
        return errors


class SimCompare(Workload):
    name = "sim-compare"
    why = ("the paper's clocked vs self-timed vs hybrid comparison on a long "
           "1-D array; the only workload dominated by sim/ and arrays.ideal")
    op_mix = ("per op: clocked run, capacity-2 self-timed recurrence makespan "
              "and hybrid execution of one seeded odd-even sorter")
    modules = ("repro.sta", "repro.sim.dataflow", "repro.sim.hybrid_exec")
    sample_every = 8

    def __init__(self, size: int) -> None:
        self.size = size

    def design(self, seed: int) -> Any:
        from repro import sta

        return sta.design_for_workload("sorter", size=self.size, seed=seed)

    def op(self, s: int, services: List[float]) -> Tuple[Any, ...]:
        from repro.sim import dataflow, hybrid_exec

        design = self.design(s)
        clocked = design.simulator().run()
        program = design.program
        selftimed = dataflow.SelfTimedProgramSimulator(
            program,
            dataflow.per_cell_service(dict(zip(program.array.comm.nodes(), services))),
            wire_delay=0.5,
            channel_capacity=2,
        )
        makespan = selftimed.recurrence_makespan()
        hybrid = hybrid_exec.execute_program_hybrid(program)
        return program, clocked, selftimed, makespan, hybrid

    def run(self, meter: Meter, seeds: List[int], seed: int, scratch: str) -> None:
        for i in range(len(seeds)):
            if meter.done():
                break
            s = seeds[i]
            services = dyadic_services(s, self.size)
            ok, out = meter.op("sim", self.op, s, services)
            if ok:
                meter.check(self.verify, out, sampled(seed, self.name, i, self.sample_every))

    @staticmethod
    def verify(out: Tuple[Any, ...], oracle: bool) -> Tuple[List[str], int]:
        program, clocked, selftimed, makespan, hybrid = out
        cells = program.array.comm.nodes()
        expected = sorted(program.pes[c].initial for c in cells)
        errors = []
        if clocked.violations:
            errors.append(f"clocked run has {len(clocked.violations)} violations")
        if clocked.result != expected:
            errors.append("clocked output is not the sorted input")
        if hybrid.result != clocked.result:
            errors.append("hybrid output differs from the clocked output")
        if oracle and selftimed.recurrence_makespan_scalar() != makespan:
            errors.append("compiled recurrence makespan differs from the scalar oracle")
        record = {
            "clocked": {"makespan": clocked.makespan, "ticks": clocked.ticks,
                        "violations": len(clocked.violations)},
            "selftimed": {"makespan": makespan},
            "hybrid": {"makespan": hybrid.makespan, "cycle_time": hybrid.cycle_time,
                       "steps": hybrid.steps},
            "result": clocked.result,
        }
        return errors, artifact_bytes(record)


#: ECO edit kinds and their share of every session (exact counts).
ECO_MIX = (("repad_edge", 0.325), ("retarget_wire", 0.325),
           ("resize_buffer", 0.10), ("set_period", 0.25))


def _bits(summary: Dict[str, Any]) -> Dict[str, Any]:
    """A summary with every float as its exact hex form."""
    out = {}
    for key, value in summary.items():
        if isinstance(value, bool) or type(value).__name__ == "bool_":
            out[key] = bool(value)
        elif isinstance(value, int):
            out[key] = int(value)
        else:
            out[key] = float(value).hex()
    return out


class EcoEdit(Workload):
    name = "eco-edit"
    why = ("the incremental write path: typed ECO edits plus a summary query "
           "over one shared session; catches per-call costs the read path hides")
    op_mix = ("one edit + summary() per op; each session: 32.5% repad_edge, 32.5% "
              "retarget_wire, 10% resize_buffer, 25% set_period, shuffled; a "
              "session opens with a design build and closes with report() + "
              "validate_sta_report, both inside the timed wall")
    modules = ("repro.obs.schema", "repro.sta")

    def __init__(self, size: int, edits: int) -> None:
        self.size = size
        self.edits = edits

    def design(self, seed: int) -> Any:
        from repro import sta

        return sta.design_for_workload("matmul", size=self.size, seed=seed)

    def script(self, s: int) -> List[Tuple[str, float, float]]:
        """One session's edits: ``(kind, target draw in [0, 1), value)``."""
        rng = random.Random(f"perfbench|eco-script|{s}")
        kinds = [k for k, share in ECO_MIX for _ in range(round(share * self.edits))]
        rng.shuffle(kinds)
        values = {
            "repad_edge": (0.0, 0.6),
            "retarget_wire": (0.0, 4.0),
            "resize_buffer": (0.0, 5.0),
            "set_period": (0.8, 1.25),  # times the session's opening period
        }
        return [(k, rng.random(), rng.uniform(*values[k])) for k in kinds]

    def open(self, s: int) -> Any:
        from repro import sta

        return sta.ECOSession(self.design(s))

    @staticmethod
    def edit(session: Any, kind: str, args: Tuple[Any, ...]) -> Tuple[Any, Dict[str, Any]]:
        edit = getattr(session, kind)(*args)
        return edit, session.summary()

    @staticmethod
    def close(session: Any) -> List[str]:
        from repro.obs import schema

        return schema.validate_sta_report(session.report().to_dict())

    @staticmethod
    def verify_edit(out: Tuple[Any, Dict[str, Any]], applied: int) -> Tuple[List[str], int]:
        edit, summary = out
        errors = []
        if summary["edits_applied"] != applied:
            errors.append(f"summary counts {summary['edits_applied']} edits, expected {applied}")
        return errors, artifact_bytes({"edit": edit.to_dict(), "summary": summary})

    def verify_session(
        self, session: Any, closed: Tuple[bool, Any], last: Optional[Dict[str, Any]]
    ) -> Tuple[List[str], None]:
        ok, errors = closed
        errors = list(errors) if ok else [str(errors)]
        if last is not None:
            full = self.full_summary(session.design, last["edits_applied"])
            if _bits(last) != _bits(full):
                errors.append("ECO summary differs from a fresh STAAnalyzer")
        return errors, None

    @staticmethod
    def full_summary(design: Any, edits_applied: int) -> Dict[str, Any]:
        """What ``ECOSession.summary()`` must equal: a fresh full analysis."""
        from repro import sta

        analyzer = sta.STAAnalyzer(design)
        analysis = analyzer.slack()
        counts = sta.build_report(design, analysis, [], 0.0, 0.0).counts
        out: Dict[str, Any] = {
            k: counts[k]
            for k in ("edges", "stale", "race", "stale_possible", "race_possible", "race_floor")
        }
        out["worst_setup_slack"] = analysis.worst_setup_slack
        out["worst_hold_slack"] = analysis.worst_hold_slack
        out["min_feasible_period_exact"] = analyzer.minimum_feasible_period("exact")
        out["min_feasible_period_bound"] = analyzer.minimum_feasible_period("bound")
        out["timing_clean"] = analysis.timing_clean
        out["robust_clean"] = analysis.robust_clean
        out["edits_applied"] = edits_applied
        return out

    def run(self, meter: Meter, seeds: List[int], seed: int, scratch: str) -> None:
        for s in seeds:
            if meter.done():
                break
            script = self.script(s)
            ok, session, _ = meter.timed("session", self.open, s)
            if not ok:
                meter.fail(str(session))
                continue
            edges = session.design.edges()
            nodes = session.design.tree.dense_store.nodes[1:]  # every non-root
            base_period = session.design.period
            last: Optional[Dict[str, Any]] = None
            for k, (kind, draw, value) in enumerate(script):
                if kind == "set_period":
                    args: Tuple[Any, ...] = (base_period * value,)
                else:
                    pool = nodes if kind == "resize_buffer" else edges
                    args = (pool[int(draw * len(pool))], value)
                ok, out = meter.op(kind, self.edit, session, kind, args)
                if ok:
                    meter.check(self.verify_edit, out, k + 1)
                    last = out[1]
            ok, errors, _ = meter.timed("session", self.close, session)
            # A failed session check fails the session's last op.
            meter.check(self.verify_session, session, (ok, errors), last)


def registry() -> Dict[str, Workload]:
    """The benchmark's workloads at their measured sizes."""
    return {
        w.name: w
        for w in (
            StaSignoff(size=18),
            EcoEdit(size=64, edits=400),
            FlowSelftimed(size=15),
            SimCompare(size=128),
        )
    }
