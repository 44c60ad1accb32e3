"""CLI tests for ``python -m repro sta``: exit codes and JSON schema."""

import json

import pytest

from repro.cli import main
from repro.obs.schema import validate_sta_report


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse errors surface as SystemExit(2)
        return int(exc.code or 0)


def test_sta_clean_exits_zero_and_emits_schema_valid_json(tmp_path, capsys):
    out = tmp_path / "sta.json"
    code = run_cli(["sta", "--workload", "fir", "--size", "4", "--json", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert isinstance(reports, list) and len(reports) == 1
    assert validate_sta_report(reports[0]) == []
    assert reports[0]["verdict"] == "clean"
    assert "fir" in capsys.readouterr().out


def test_sta_all_workloads_emits_four_reports(tmp_path):
    out = tmp_path / "sta.json"
    code = run_cli(["sta", "--size", "3", "--json", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 4
    assert all(validate_sta_report(r) == [] for r in reports)


def test_sta_infeasible_period_exits_one(tmp_path):
    out = tmp_path / "sta.json"
    code = run_cli(
        ["sta", "--workload", "matmul", "--size", "3",
         "--period", "1e-6", "--json", str(out)]
    )
    assert code == 1
    (report,) = json.loads(out.read_text())
    assert report["verdict"] == "violations"
    assert report["counts"]["stale"] > 0
    assert validate_sta_report(report) == []


def test_sta_bad_configuration_exits_two():
    assert run_cli(["sta", "--workload", "fir", "--delta", "-1.0"]) == 2


def test_sta_unknown_workload_rejected():
    assert run_cli(["sta", "--workload", "quantum"]) == 2


@pytest.mark.parametrize("workload", ["fir", "matvec", "sorter", "matmul"])
@pytest.mark.parametrize("size", [0, -3])
def test_design_facade_rejects_non_positive_size(workload, size):
    from repro.sta.design import design_for_workload

    with pytest.raises(ValueError, match="size must be positive"):
        design_for_workload(workload, size)


def test_sta_renders_drc_and_flagged_edge_tables(capsys):
    code = run_cli(
        ["sta", "--workload", "matmul", "--size", "3",
         "--period", "1e-6", "--verbose"]
    )
    assert code == 1
    text = capsys.readouterr().out
    assert "design rules" in text
    assert "flags" in text  # the offending-edge table is shown
    assert "stale" in text


def write_eco_script(path, steps):
    path.write_text(json.dumps(steps))
    return str(path)


def eco_identity_script(tmp_path):
    """Edits that provably keep a clean design clean: repad to the current
    pad, retarget to the current layout distance, raise the period."""
    from repro.sta.design import design_for_workload

    d = design_for_workload("fir", size=4, scheme="serpentine", seed=0)
    e = d.edges()[0]
    parent = next(n for n in d.tree.nodes() if len(d.tree.children(n)) < 2)
    return write_eco_script(tmp_path / "eco.json", [
        {"op": "repad_edge", "edge": [str(e[0]), str(e[1])],
         "pad": d.edge_padding.get(e, 0.0)},
        {"op": "retarget_wire", "edge": [str(e[0]), str(e[1])],
         "length": d.array.layout.distance(e[0], e[1])},
        {"op": "graft_subtree", "nodes": [
            {"parent": str(parent), "node": "spare:0",
             "x": 0.0, "y": 0.0, "length": 0.5}]},
        {"op": "set_period", "period": d.period * 1.2},
    ])


def test_sta_eco_emits_one_report_per_step(tmp_path, capsys):
    script = eco_identity_script(tmp_path)
    out = tmp_path / "reports.json"
    code = run_cli(
        ["sta", "--workload", "fir", "--size", "4",
         "--eco", script, "--json", str(out)]
    )
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 5  # initial + four steps
    for i, report in enumerate(reports):
        assert validate_sta_report(report) == []
        assert report["verdict"] == "clean"
        if i == 0:
            assert "eco" not in report
        else:
            assert report["eco"]["dirty_rows"] <= report["counts"]["edges"]
    assert reports[1]["eco"]["edit"] == "repad_edge"
    assert reports[4]["eco"]["edit"] == "set_period"
    assert "reuse" in capsys.readouterr().out


def test_sta_eco_requires_single_workload(tmp_path, capsys):
    script = eco_identity_script(tmp_path)
    code = run_cli(["sta", "--eco", script])
    assert code == 2
    assert "single --workload" in capsys.readouterr().err


def test_sta_eco_rejects_unknown_targets(tmp_path, capsys):
    script = write_eco_script(
        tmp_path / "bad.json",
        [{"op": "repad_edge", "edge": ["nope", "nada"], "pad": 0.1}],
    )
    code = run_cli(["sta", "--workload", "fir", "--size", "4", "--eco", script])
    assert code == 2
    assert "unknown cell" in capsys.readouterr().err


def test_sta_eco_rejects_non_finite_period(tmp_path, capsys):
    script = write_eco_script(
        tmp_path / "nan.json", [{"op": "set_period", "period": float("nan")}]
    )
    out = tmp_path / "reports.json"
    code = run_cli(["sta", "--workload", "fir", "--size", "4",
                    "--eco", script, "--json", str(out)])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "period" in err[0], err
    assert not out.exists()


def test_sta_eco_rejects_unknown_op(tmp_path, capsys):
    script = write_eco_script(
        tmp_path / "bad.json", [{"op": "teleport", "x": 1}]
    )
    code = run_cli(["sta", "--workload", "fir", "--size", "4", "--eco", script])
    assert code == 2
    assert "unknown ECO op" in capsys.readouterr().err
