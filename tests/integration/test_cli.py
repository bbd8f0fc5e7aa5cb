"""The `python -m repro.experiments` CLI."""

import json

import pytest

from repro.experiments.__main__ import main


class TestExperimentsCLI:
    def test_runs_selected_fast_experiments(self, capsys):
        assert main(["--only", "table2", "limits"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Eqs. 4-7" in out

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["--only", "fig99"])

    def test_accuracy_names_require_flag_or_only(self, capsys):
        # selecting fig3 via --only auto-includes the accuracy set; use
        # the tiniest possible check by just validating name resolution
        with pytest.raises(SystemExit):
            main(["--only", "not-an-experiment", "--accuracy"])

    def test_list_prints_names_and_exits(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig13" in out
        assert "fig3" in out  # accuracy experiments listed too
        assert "Table II" not in out  # nothing actually ran

    def test_total_time_summary_printed(self, capsys):
        assert main(["--only", "limits"]) == 0
        out = capsys.readouterr().out
        assert "== total: 1 experiment(s) in" in out

    def test_pipeline_flag_compiles_model(self, capsys):
        assert main(["--pipeline", "lenet5", "--bits", "8", "--report"]) == 0
        out = capsys.readouterr().out
        assert "compiled lenet5" in out
        assert "== Compile:" in out  # --report prints the per-pass table
        assert "fuse" in out and "quantize" in out

    def test_pipeline_unknown_model_errors(self, capsys):
        assert main(["--pipeline", "not-a-model"]) == 2


class TestTraceFlags:
    """``--obs DIR``: the one observability switch of the CLI."""

    @pytest.fixture(autouse=True)
    def _clean_global_instruments(self):
        yield
        from repro.obs import get_telemetry, get_tracer

        for instrument in (get_tracer(), get_telemetry()):
            instrument.disable()
            instrument.clear()

    def test_pipeline_chrome_trace_is_unified(self, tmp_path, capsys):
        """The acceptance command: compiler-pass, per-layer forward and
        simulator spans all land in one Chrome trace."""
        assert main(["--pipeline", "lenet5", "--bits", "8", "--obs", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "trace.json").read_text())
        events = doc["traceEvents"]
        assert events
        for ev in events:
            assert {"ph", "ts", "name"} <= set(ev)
            if ev["ph"] == "X":
                assert "dur" in ev
        names = {ev["name"] for ev in events}
        assert any(n.startswith("compile.pass.") for n in names)  # compiler
        assert "compile.pipeline" in names
        assert any(n.startswith("lenet5.") and n.endswith(".forward") for n in names)
        assert "sim.network" in names and "sim.layer" in names  # simulator
        out = capsys.readouterr().out
        assert f"-> {tmp_path}" in out
        assert "profile (top frames):" in out

    def test_suite_jsonl_trace(self, tmp_path, capsys):
        assert main(["--only", "limits", "--obs", str(tmp_path)]) == 0
        text = (tmp_path / "trace.jsonl").read_text()
        docs = [json.loads(line) for line in text.strip().split("\n")]
        names = {d["name"] for d in docs}
        assert "experiments.suite" in names
        assert "experiment.limits" in names

    def test_trace_summary_prints_table(self, tmp_path, capsys):
        assert main(["--only", "limits", "--obs", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "== Trace:" in out
        assert "experiment.limits" in out

    def test_tracer_disabled_after_run(self, tmp_path):
        from repro.obs import get_telemetry, get_tracer

        assert main(["--only", "limits", "--obs", str(tmp_path)]) == 0
        assert not get_tracer().enabled
        assert not get_telemetry().enabled
