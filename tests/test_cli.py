"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_models_command(capsys):
    out = run_cli(capsys, "models")
    assert "alexnet" in out and "googlenet" in out
    assert "general" in out and "line" in out


def test_summary_command(capsys):
    out = run_cli(capsys, "summary", "nin")
    assert "nin" in out and "GFLOPs" in out


def test_table_command(capsys):
    out = run_cli(capsys, "table", "alexnet", "--mbps", "10")
    assert "cut positions" in out
    assert "f (ms)" in out


def test_plan_command(capsys):
    out = run_cli(capsys, "plan", "alexnet", "-n", "10", "--mbps", "10")
    assert "JPS" in out and "makespan" in out and "l*" in out


def test_plan_with_gantt(capsys):
    out = run_cli(capsys, "plan", "alexnet", "-n", "6", "--mbps", "10", "--gantt")
    assert "mobile-cpu" in out and "uplink" in out


def test_plan_baseline_scheme(capsys):
    out = run_cli(capsys, "plan", "alexnet", "-n", "5", "--scheme", "LO")
    assert "LO" in out


def test_compare_command(capsys):
    out = run_cli(capsys, "compare", "alexnet", "-n", "20", "--mbps", "10")
    assert "LP-LB" in out
    assert "reduction vs LO" in out
    # JPS row present and the bound row is last numeric row
    assert "JPS" in out


def test_experiment_fig4(capsys):
    out = run_cli(capsys, "experiment", "fig4")
    assert "Fig. 4" in out


def test_experiment_table1(capsys):
    out = run_cli(capsys, "experiment", "table1")
    assert "Table 1" in out


def test_unknown_model_rejected():
    with pytest.raises(SystemExit):
        main(["summary", "alexnet-9000"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_parser_help_lists_commands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("models", "summary", "table", "plan", "compare", "experiment"):
        assert command in text


def test_dot_command(capsys):
    out = run_cli(capsys, "dot", "alexnet", "--mbps", "10")
    assert out.startswith("digraph")
    assert "fillcolor" in out          # the JPS cut is highlighted
    assert "penwidth=2.5" in out       # crossing edges marked


def test_dot_command_general_model(capsys):
    for model in ("mini-inception", "googlenet"):
        out = run_cli(capsys, "dot", model, "--mbps", "10")
        assert out.startswith("digraph")
        assert "fillcolor" in out, model       # the JPS cut is highlighted
        assert "penwidth=2.5" in out, model    # crossing edges marked


def test_energy_command(capsys):
    out = run_cli(capsys, "energy", "alexnet", "--radio", "cellular")
    assert "Pareto points" in out
    assert "J" in out


def test_campaign_command_roundtrip(capsys, tmp_path):
    out = run_cli(capsys, "campaign", str(tmp_path / "a.json"), "--quick")
    assert "campaign saved" in out
    out = run_cli(
        capsys, "campaign", str(tmp_path / "b.json"), "--quick",
        "--compare", str(tmp_path / "a.json"),
    )
    assert "no regressions" in out


def test_campaign_command_detects_regression(capsys, tmp_path, monkeypatch):
    import json

    run_cli(capsys, "campaign", str(tmp_path / "a.json"), "--quick")
    doc = json.loads((tmp_path / "a.json").read_text())
    doc["fig11"][0]["jps_s"] *= 3.0
    (tmp_path / "a.json").write_text(json.dumps(doc))
    from repro.cli import main as cli_main

    code = cli_main(
        ["campaign", str(tmp_path / "b.json"), "--quick",
         "--compare", str(tmp_path / "a.json")]
    )
    assert code == 1


def test_serve_command(capsys):
    out = run_cli(
        capsys, "serve", "--clients", "2", "--rate", "1", "--horizon", "8",
        "--scheme", "JPS", "--scheme", "LO",
    )
    assert "JPS" in out and "LO" in out
    assert "served" in out and "p95" in out


def test_serve_json_to_stdout(capsys):
    import json

    out = run_cli(
        capsys, "serve", "--clients", "2", "--rate", "1", "--horizon", "8",
        "--scheme", "JPS", "--json", "-",
    )
    payload = json.loads(out[out.index("{"):])
    jps = payload["schemes"]["JPS"]
    assert jps["servers"]["gateway"]["report"]["balance_ok"] is True
    assert jps["arrivals"] > 0


def test_serve_faults_command(capsys, tmp_path):
    import json

    artifact = tmp_path / "faults.json"
    out = run_cli(
        capsys, "serve", "--faults", "--clients", "2", "--rate", "1.5",
        "--horizon", "10", "--blackout-start", "3", "--blackout-duration", "1.5",
        "--json", str(artifact),
    )
    assert "blackout 3s +1.5s" in out
    assert "policy" in out and "no_policy" in out
    assert "accounting violations 0" in out
    payload = json.loads(artifact.read_text())
    assert payload["comparison"]["degradations"] >= 1
    assert payload["violations"] == []
    assert payload["baseline"]["violations"] == []


def test_serve_faults_json_to_stdout(capsys):
    import json

    out = run_cli(
        capsys, "serve", "--faults", "--clients", "2", "--rate", "1.5",
        "--horizon", "10", "--json", "-",
    )
    payload = json.loads(out[out.index("{"):])
    assert payload["config"]["faults"]["plan"]["blackouts"] == [[8.0, 10.0]]
    assert payload["config"]["faults"]["resilience"]["local_fallback"] is True


def test_experiment_serving(capsys):
    out = run_cli(capsys, "experiment", "serving")
    assert "serving" in out.lower()
    assert "JPS" in out


def test_fleet_command_with_single_server_comparison(capsys):
    out = run_cli(
        capsys, "fleet", "--servers", "2", "--clients", "4", "--rate", "2",
        "--horizon", "6", "--compare-single",
    )
    assert "2 servers" in out and "within deadline" in out
    assert "violations 0" in out
    assert "vs single server" in out


def test_fleet_json_to_stdout(capsys):
    import json

    out = run_cli(
        capsys, "fleet", "--servers", "2", "--clients", "4", "--rate", "2",
        "--horizon", "6", "--json", "-",
    )
    payload = json.loads(out[out.index("{"):])
    assert payload["violations"] == [] and payload["clock_violations"] == []
    fleet = payload["fleet"]
    assert fleet["arrivals"] > 0
    assert set(payload["servers"]) == {"server0", "server1"}
    assert fleet["arrived_servers"] + fleet["rejected_fleet"] == fleet["arrivals"]


def test_fleet_json_artifact(capsys, tmp_path):
    import json

    artifact = tmp_path / "fleet.json"
    out = run_cli(
        capsys, "fleet", "--servers", "2", "--clients", "2", "--rate", "1",
        "--horizon", "6", "--placement", "eft", "--json", str(artifact),
    )
    assert "system report written to" in out
    payload = json.loads(artifact.read_text())
    assert payload["config"]["placement"]["policy"] == "eft"
    assert payload["violations"] == []


def test_experiment_fleet(capsys):
    out = run_cli(capsys, "experiment", "fleet")
    assert "fig_fleet" in out
    assert "invariant violations: 0" in out
