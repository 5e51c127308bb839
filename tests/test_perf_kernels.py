"""The perf subsystem: the backend name, the profiler and its validator."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.perf.kernels import active_backend
from repro.perf.profiler import format_report, profile_experiment, smoke_params
from repro.perf.schemas import main as schemas_main
from repro.perf.schemas import validate_profile
from repro.perf.timing import median_of_k


def test_backend_name_is_numpy():
    assert active_backend() == "numpy"


# ---------------------------------------------------------------------- #
# Timing helper
# ---------------------------------------------------------------------- #
class TestMedianOfK:
    def test_median_is_robust_to_one_outlier(self):
        calls = iter([0.0] * 10)

        def call():
            next(calls)

        assert median_of_k(call, repeats=3, warmup=2) >= 0.0
        with pytest.raises(StopIteration):
            median_of_k(call, repeats=5, warmup=2)  # consumed warmup + timed calls

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            median_of_k(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            median_of_k(lambda: None, warmup=-1)


# ---------------------------------------------------------------------- #
# Profiler
# ---------------------------------------------------------------------- #
class TestProfiler:
    def test_smoke_profile_of_figure4_is_schema_valid(self):
        report = profile_experiment("figure4", smoke=True, top=10)
        validate_profile(report)  # returning implies valid; re-check explicitly
        assert report["experiment"] == "figure4"
        assert report["smoke"] is True
        assert 0 < len(report["hotspots"]) <= 10
        assert report["total_calls"] > 0
        modules = {entry["module"] for entry in report["modules"]}
        assert any(module.startswith("repro.") for module in modules)
        text = format_report(report, top=5)
        assert "figure4" in text and "cumtime" in text

    def test_profile_runs_the_trials_in_process(self, monkeypatch):
        """With pool workers the trials would run out of cProfile's sight;
        the balancer, the hot loop of every trial, must show."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        report = profile_experiment("figure4", smoke=True, top=50)
        balancer = "repro.core.maxmin.balancer"
        assert balancer in {entry["module"] for entry in report["hotspots"]}
        assert balancer in [entry["module"] for entry in report["modules"][:5]]

    def test_smoke_params_shrink_only_declared_parameters(self):
        from repro.experiments.registry import get_experiment

        params = smoke_params(get_experiment("figure4"))
        declared = {spec.name for spec in get_experiment("figure4").params}
        assert params and set(params) <= declared

    def test_rejects_nonpositive_top(self):
        with pytest.raises(ValueError, match="top"):
            profile_experiment("figure4", smoke=True, top=0)


# ---------------------------------------------------------------------- #
# CLI surface and the standalone validator
# ---------------------------------------------------------------------- #
class TestPerfCli:
    def test_profile_subcommand_writes_valid_json(self, tmp_path, capsys):
        target = tmp_path / "profile.json"
        assert cli_main(["profile", "figure4", "--smoke", "--top", "5", "--output", str(target)]) == 0
        payload = json.loads(target.read_text())
        validate_profile(payload)
        assert "profile of experiment 'figure4'" in capsys.readouterr().out
        assert schemas_main([str(target)]) == 0

    def test_profile_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["profile", "does-not-exist"])
        assert "unknown experiment" in capsys.readouterr().err

    def test_output_refuses_to_overwrite_without_force(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        target.write_text("{}")
        with pytest.raises(SystemExit):
            cli_main(["profile", "figure4", "--smoke", "--output", str(target)])
        assert "--force" in capsys.readouterr().err

    def test_validator_flags_corrupt_documents(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "bench"}))
        assert schemas_main([str(bad)]) == 1
        assert "schema violation" in capsys.readouterr().err
        not_json = tmp_path / "not.json"
        not_json.write_text("{nope")
        assert schemas_main([str(not_json)]) == 1
        assert schemas_main([]) == 2
        assert schemas_main([str(bad), str(not_json)]) == 2
