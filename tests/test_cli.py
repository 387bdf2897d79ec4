"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if hasattr(a, "choices") and a.choices)
        for cmd in ("fig5", "fig6", "fig7", "fig8", "fig9", "table2",
                    "explore", "recommend", "breakdown"):
            assert cmd in sub.choices

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "llut_i" in out

    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out and "sqrt" in out

    def test_breakdown(self, capsys):
        assert main(["breakdown", "sin", "llut_i", "density_log2=10"]) == 0
        out = capsys.readouterr().out
        assert "instruction breakdown" in out
        assert "fmul" in out

    def test_recommend(self, capsys):
        assert main(["recommend", "sin", "--rmse", "1e-4",
                     "--evals", "1000"]) == 0
        out = capsys.readouterr().out
        assert "recommended methods" in out

    def test_fig_quick(self, capsys):
        assert main(["fig5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out and "cordic" in out


class TestNewCommands:
    def test_validate(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "cycle-accurate" in out and "tasklets" in out

    def test_pareto_quick(self, capsys):
        assert main(["pareto", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out

    def test_listing(self, capsys):
        assert main(["listing", "sin", "llut", "density_log2=10"]) == 0
        out = capsys.readouterr().out
        assert "kernel listing" in out and "fadd" in out

    def test_profile(self, capsys):
        assert main(["profile", "sin", "llut_i", "density_log2=10",
                     "--bins", "6"]) == 0
        out = capsys.readouterr().out
        assert "error profile" in out


class TestObservability:
    def test_trace_prints_span_tree(self, capsys):
        assert main(["trace", "sin", "llut_i", "density_log2=10",
                     "--n", "256"]) == 0
        out = capsys.readouterr().out
        assert "system.run" in out and "kernel" in out
        assert "host.install" in out
        assert "metrics:" in out and "batch.calls" in out

    def test_trace_writes_chrome_json(self, capsys, tmp_path):
        import json
        path = tmp_path / "trace.json"
        assert main(["trace", "sin", "llut_i", "density_log2=10",
                     "--n", "128", "--json", str(path)]) == 0
        blob = json.loads(path.read_text())
        assert blob["traceEvents"]
        assert {"name", "ph", "ts", "dur"} <= set(blob["traceEvents"][0])

    def test_bench_emit_quick(self, capsys, tmp_path):
        import json
        path = tmp_path / "BENCH_obs.json"
        assert main(["bench", "--quick", "--emit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "bench snapshot" in out
        blob = json.loads(path.read_text())
        assert blob["schema"] == "repro-bench/1"
        assert blob["sections"]["system_phases"]["reconciles"] is True

    def test_trace_and_bench_registered(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if hasattr(a, "choices") and a.choices)
        assert "trace" in sub.choices and "bench" in sub.choices


class TestLint:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_strict_flags_seeded_violations(self, capsys):
        assert main(["lint", "--strict", "--passes", "ast",
                     "--extra-module", "tests.lint.broken_kernels"]) == 1
        out = capsys.readouterr().out
        assert "uncounted-op" in out
        assert "broken_kernels.py" in out

    def test_json_output_is_valid(self, capsys):
        import json
        assert main(["lint", "--json", "--passes", "ast,memory"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["passes"] == ["ast", "memory"]
        assert blob["counts"] == {"error": 0, "warning": 0, "suppressed": 0}
        assert blob["violations"] == []

    def test_program_passes_with_baseline(self, capsys, tmp_path):
        import json
        bl = tmp_path / "bl.json"
        bl.write_text(json.dumps(
            {"schema": "repro-lint-baseline/1", "accepted": []}))
        assert main(["lint", "--strict", "--passes",
                     "determinism,parallel-safety,obs-contract",
                     "--baseline", str(bl)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_bad_baseline_is_a_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["lint", "--baseline", str(bad)]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_write_baseline_snapshots_findings(self, capsys, tmp_path):
        import json
        out_path = tmp_path / "bl.json"
        assert main(["lint", "--passes", "ast",
                     "--extra-module", "tests.lint.broken_kernels",
                     "--write-baseline", str(out_path)]) == 0
        blob = json.loads(out_path.read_text())
        assert blob["schema"] == "repro-lint-baseline/1"
        assert len(blob["accepted"]) > 0
        # Re-running against the snapshot passes: all findings accepted.
        assert main(["lint", "--strict", "--passes", "ast",
                     "--extra-module", "tests.lint.broken_kernels",
                     "--baseline", str(out_path)]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_unknown_pass_is_a_usage_error(self, capsys):
        assert main(["lint", "--passes", "bogus"]) == 2
        assert "unknown lint pass" in capsys.readouterr().err

    def test_lint_registered_in_parser(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if hasattr(a, "choices") and a.choices)
        assert "lint" in sub.choices


class TestTopologyCommands:
    def test_topology_prints_paper_system(self, capsys):
        assert main(["topology"]) == 0
        out = capsys.readouterr().out
        assert "2545" in out and "2560" in out
        assert "per-channel" in out
        assert "2x10x2x64-d15-" in out

    def test_topology_overrides(self, capsys):
        assert main(["topology", "--channels", "2", "--dimms", "2",
                     "--ranks", "2", "--dpus-per-rank", "8"]) == 0
        out = capsys.readouterr().out
        assert "2x2x2x8" in out
        assert "64" in out  # usable DPUs

    def test_plan_with_topology_override(self, capsys):
        assert main(["plan", "sin", "llut_i", "density_log2=10",
                     "--dimms", "1", "--ranks", "1"]) == 0
        out = capsys.readouterr().out
        assert "topology" in out
        assert "2x1x1x64" in out

    def test_run_rank_aligned(self, capsys):
        assert main(["run", "sin", "llut_i", "density_log2=10",
                     "--n", "4096", "--shards", "2", "--rank-aligned",
                     "--dimms", "1"]) == 0
        out = capsys.readouterr().out
        assert "rank-aligned" in out

    def test_run_on_workers_matches_inline(self, capsys, monkeypatch):
        """``--workers`` builds one pool for every launch, prints the
        inline run's numbers and leaves no worker alive."""
        from tests.plan.test_pool import _record_process_starts

        def columns(out):
            rows = out.splitlines()[3:]
            return [row.split()[:6] for row in rows]  # launch .. dpus

        run = ["run", "sin", "mlut", "--n", "4096", "--shards", "4",
               "--repeat", "2"]
        assert main(run) == 0
        inline = columns(capsys.readouterr().out)
        started = _record_process_starts(monkeypatch)
        assert main(run + ["--workers", "2", "--start-method", "fork",
                           "--timeout", "120"]) == 0
        out = capsys.readouterr().out
        assert "x 2 workers" in out
        assert columns(out) == inline
        assert len(inline) == 2
        assert len(started) == 2
        assert not any(p.is_alive() for p in started)

    def test_topology_registered_in_parser(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if hasattr(a, "choices") and a.choices)
        assert "topology" in sub.choices
