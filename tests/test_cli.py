"""Tests for the command-line interface."""

import json
import os
import sys

import pytest

from repro.cli import build_parser, main
from repro.obs.spans import load_spans


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "PROB"
        assert args.window == 100

    def test_algorithm_upper_cased(self):
        args = build_parser().parse_args(["run", "--algorithm", "prob"])
        assert args.algorithm == "PROB"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for token in ("PROB", "figure3", "static_join", "ablation_drift", "ci"):
            assert token in out

    def test_run(self, capsys):
        code = main(
            ["run", "--algorithm", "RAND", "--length", "300",
             "--window", "20", "--memory", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RAND:" in out
        assert "% of exact" in out

    def test_run_uniform_workload(self, capsys):
        code = main(
            ["run", "--workload", "uniform", "--length", "200",
             "--window", "15", "--memory", "8", "--algorithm", "PROBV"]
        )
        assert code == 0
        assert "uniform" in capsys.readouterr().out

    def test_run_weather_workload(self, capsys):
        code = main(
            ["run", "--workload", "weather", "--length", "1500",
             "--window", "100", "--memory", "50"]
        )
        assert code == 0
        assert "weather" in capsys.readouterr().out

    def test_compare(self, capsys):
        code = main(
            ["compare", "--algorithms", "RAND,PROB", "--length", "300",
             "--window", "20", "--memory", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RAND" in out and "PROB" in out and "EXACT" in out

    def test_compare_unknown_algorithm(self, capsys):
        assert main(["compare", "--algorithms", "RAND,NOPE"]) == 2
        assert "unknown algorithms" in capsys.readouterr().err

    def test_compare_with_workers(self, capsys):
        serial = main(
            ["compare", "--algorithms", "RAND,PROB", "--length", "300",
             "--window", "20", "--memory", "10", "--workers", "1"]
        )
        serial_out = capsys.readouterr().out
        parallel = main(
            ["compare", "--algorithms", "RAND,PROB", "--length", "300",
             "--window", "20", "--memory", "10", "--workers", "2"]
        )
        parallel_out = capsys.readouterr().out
        assert serial == parallel == 0
        assert serial_out == parallel_out  # determinism contract

    def test_sweep(self, capsys):
        code = main(
            ["sweep", "--algorithms", "RAND,PROB", "--seeds", "0,1",
             "--length", "300", "--window", "20", "--memory", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "RAND" in out and "PROB" in out
        assert "mean" in out and "seeds=0,1" in out

    def test_sweep_bad_seeds(self, capsys):
        assert main(["sweep", "--seeds", "0,abc"]) == 2
        assert "seeds" in capsys.readouterr().err

    def test_sweep_unknown_algorithm(self, capsys):
        assert main(["sweep", "--algorithms", "RAND,NOPE"]) == 2
        assert "unknown algorithms" in capsys.readouterr().err

    def test_figure(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "ci")
        assert main(["figure", "figure8"]) == 0
        out = capsys.readouterr().out
        assert "figure8" in out
        assert "R share of memory" in out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "figure99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_table(self, capsys):
        assert main(["table", "multiway_join"]) == 0
        assert "multiway_join" in capsys.readouterr().out

    def test_table_with_scale(self, capsys):
        assert main(["table", "static_join", "--scale", "ci"]) == 0
        assert "static_join" in capsys.readouterr().out

    def test_table_unknown(self, capsys):
        assert main(["table", "bogus"]) == 2
        assert "unknown table" in capsys.readouterr().err


class TestFaultToleranceFlags:
    """The FT knobs are uniform across run / compare / sweep."""

    FLAGS = ["--shards", "3", "--max-retries", "2", "--timeout-s", "30",
             "--checkpoint-every", "16", "--degrade"]

    @pytest.mark.parametrize("command", ["run", "compare", "sweep"])
    def test_flags_parse_uniformly(self, command):
        args = build_parser().parse_args([command] + self.FLAGS)
        assert args.shards == 3
        assert args.max_retries == 2
        assert args.timeout_s == 30.0
        assert args.checkpoint_every == 16
        assert args.degrade is True

    def test_run_rejects_knobs_without_shards(self, capsys):
        code = main(["run", "--algorithm", "PROB", "--length", "300",
                     "--window", "20", "--memory", "10",
                     "--max-retries", "2"])
        assert code == 2
        assert "requires sharded execution" in capsys.readouterr().err

    def test_compare_rejects_knobs_without_shards(self, capsys):
        code = main(["compare", "--algorithms", "RAND,PROB",
                     "--length", "300", "--window", "20", "--memory", "10",
                     "--degrade"])
        assert code == 2
        assert "requires sharded execution" in capsys.readouterr().err

    def test_sweep_rejects_knobs_without_shards(self, capsys):
        code = main(["sweep", "--algorithms", "RAND", "--seeds", "0,1",
                     "--length", "300", "--window", "20", "--memory", "10",
                     "--checkpoint-every", "8"])
        assert code == 2
        assert "requires sharded execution" in capsys.readouterr().err

    def test_run_with_retries_and_checkpoints(self, capsys, tmp_path):
        code = main(["run", "--algorithm", "EXACT", "--length", "300",
                     "--window", "20", "--memory", "10", "--shards", "2",
                     "--max-retries", "1", "--checkpoint-every", "16",
                     "--checkpoint-dir", str(tmp_path)])
        assert code == 0
        assert "EXACT:" in capsys.readouterr().out

    def test_sweep_accepts_shards(self, capsys):
        code = main(["sweep", "--algorithms", "RAND,PROB", "--seeds", "0,1",
                     "--length", "300", "--window", "20", "--memory", "10",
                     "--shards", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "RAND" in out and "PROB" in out and "mean" in out


class TestVersionedJsonExport:
    def test_run_json_carries_schema_and_run_document(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "m.json"
        code = main(["run", "--algorithm", "PROB", "--length", "300",
                     "--window", "20", "--memory", "10",
                     "--metrics", "json", "--metrics-out", str(out_path)])
        assert code == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text())
        assert payload["schema_version"] == 2
        assert payload["run"]["policy"] == "PROB"
        assert payload["run"]["drops"]["schema_version"] == 2
        assert payload["run"]["output_count"] >= 0

    def test_json_round_trips_through_loader(self, tmp_path, capsys):
        from repro.obs import load_metrics_json

        out_path = tmp_path / "m.json"
        main(["run", "--algorithm", "PROB", "--length", "300",
              "--window", "20", "--memory", "10",
              "--metrics", "json", "--metrics-out", str(out_path)])
        capsys.readouterr()
        registry = load_metrics_json(out_path)
        assert registry.counter_value("engine.output") >= 0


class TestMetricsEmission:
    def test_compare_csv_has_policy_column(self, capsys):
        """Format lock: multi-policy CSV is one table with a policy column."""
        import csv
        import io

        code = main(
            ["compare", "--algorithms", "RAND,PROB", "--length", "300",
             "--window", "20", "--memory", "10", "--metrics", "csv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        csv_start = out.index("policy,kind,name,labels,x,value")
        rows = list(csv.reader(io.StringIO(out[csv_start:])))
        assert rows[0] == ["policy", "kind", "name", "labels", "x", "value"]
        assert {row[0] for row in rows[1:]} == {"RAND", "PROB"}
        # the old format concatenated per-policy blocks under comments
        assert "# RAND" not in out
        assert "# PROB" not in out

    def test_single_run_csv_keeps_plain_header(self, capsys):
        code = main(
            ["run", "--algorithm", "RAND", "--length", "300",
             "--window", "20", "--memory", "10", "--metrics", "csv"]
        )
        assert code == 0
        assert "kind,name,labels,x,value" in capsys.readouterr().out


class TestTraceCommands:
    def test_record_writes_jsonl(self, capsys, tmp_path):
        out_path = tmp_path / "prob.trace.jsonl"
        code = main(
            ["trace", "record", "--algorithm", "PROB", "--length", "300",
             "--window", "20", "--memory", "10", "--out", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace events" in out
        assert out_path.exists()
        assert out_path.read_text().count("\n") > 0

    def test_record_without_out_prints_summary(self, capsys):
        code = main(
            ["trace", "record", "--length", "300", "--window", "20",
             "--memory", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "arrive" in out
        assert "admit" in out

    def test_inspect_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "t.jsonl"
        main(["trace", "record", "--length", "300", "--window", "20",
              "--memory", "10", "--out", str(out_path)])
        capsys.readouterr()
        code = main(["trace", "inspect", str(out_path), "--events", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "kinds" in out
        assert "arrive" in out

    def test_inspect_missing_file(self, capsys):
        code = main(["trace", "inspect", "/nonexistent/trace.jsonl"])
        assert code == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_attribute_prints_reconciling_table(self, capsys):
        code = main(
            ["trace", "attribute", "--algorithms", "PROB,RAND",
             "--scale", "ci", "--top", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PROB" in out
        assert "RAND" in out
        assert "yes" in out
        assert "NO" not in out  # every ledger reconciles
        assert "costliest" in out

    def test_attribute_rejects_opt(self, capsys):
        code = main(["trace", "attribute", "--algorithms", "OPT"])
        assert code == 2
        assert "cannot attribute" in capsys.readouterr().err


class TestDashCommand:
    def test_dash_once(self, capsys):
        code = main(
            ["dash", "--algorithm", "PROB", "--length", "300", "--window", "20",
             "--memory", "10", "--once", "--no-color"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "arrive" in out
        assert "produced" in out
        assert "\x1b[" not in out

    def test_dash_from_trace(self, capsys, tmp_path):
        out_path = tmp_path / "t.jsonl"
        main(["trace", "record", "--length", "300", "--window", "20",
              "--memory", "10", "--out", str(out_path)])
        capsys.readouterr()
        code = main(
            ["dash", "--from-trace", str(out_path), "--bucket", "30",
             "--once", "--no-color"]
        )
        assert code == 0
        assert "memory" in capsys.readouterr().out

    def test_dash_missing_trace(self, capsys):
        code = main(["dash", "--from-trace", "/nonexistent.jsonl", "--once"])
        assert code == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestTraceTimelineCommand:
    ARGS = ["trace", "timeline", "--length", "300", "--window", "20",
            "--memory", "10", "--domain", "30", "--shards", "2"]

    def test_prints_summary_and_stage_table(self, capsys):
        code = main(self.ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline :" in out
        assert "span events" in out
        assert "heartbeat" in out
        assert "queue" in out  # the stage-latency table

    def test_writes_chrome_trace_json(self, capsys, tmp_path):
        out_path = tmp_path / "timeline.json"
        code = main(self.ARGS + ["--out", str(out_path)])
        assert code == 0
        capsys.readouterr()
        trace = json.loads(out_path.read_text())
        assert trace["traceEvents"]
        phases = {event["ph"] for event in trace["traceEvents"]}
        assert phases >= {"M", "X"}

    def test_spans_out_round_trips(self, capsys, tmp_path):
        spans_path = tmp_path / "spans.jsonl"
        code = main(self.ARGS + ["--spans-out", str(spans_path)])
        assert code == 0
        capsys.readouterr()
        events = load_spans(spans_path)
        assert any(event.kind == "heartbeat" for event in events)
        assert any(event.kind == "merge" for event in events)

    def test_rejects_unsharded_runs(self, capsys):
        code = main(["trace", "timeline", "--length", "300", "--window",
                     "20", "--memory", "10"])
        assert code == 2
        assert "shards > 1" in capsys.readouterr().err


class TestFleetDashCommand:
    def test_fleet_once(self, capsys):
        code = main(
            ["dash", "--fleet", "--length", "300", "--window", "20",
             "--memory", "10", "--domain", "30", "--shards", "2",
             "--once", "--no-color"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 shards" in out
        assert "done" in out
        assert "\x1b[" not in out

    def test_fleet_from_saved_spans(self, capsys, tmp_path):
        spans_path = tmp_path / "spans.jsonl"
        main(["trace", "timeline", "--length", "300", "--window", "20",
              "--memory", "10", "--domain", "30", "--shards", "2",
              "--spans-out", str(spans_path)])
        capsys.readouterr()
        code = main(["dash", "--fleet", "--from-trace", str(spans_path),
                     "--once", "--no-color"])
        assert code == 0
        assert "shards" in capsys.readouterr().out

    def test_fleet_missing_trace(self, capsys):
        code = main(["dash", "--fleet", "--from-trace", "/nonexistent.jsonl",
                     "--once"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


class TestServeCommand:
    def test_bounded_generator_run(self, capsys):
        code = main(
            ["serve", "--source", "zipf", "--algorithm", "PROB",
             "--length", "3000", "--window", "20", "--memory", "10",
             "--domain", "30", "--summary-every", "1000"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "PROB" in err
        assert "output tuples" in err
        assert err.count("t=") >= 3  # rolling summaries every 1000 ticks

    def test_duration_bounds_an_unbounded_generator(self, capsys):
        code = main(
            ["serve", "--source", "drifting-zipf", "--phase-length", "500",
             "--duration", "2000", "--window", "20", "--memory", "10",
             "--estimator", "ewma", "--summary-every", "1000"]
        )
        assert code == 0
        assert "2000 ticks" in capsys.readouterr().err

    def test_emit_jsonl_streams_output_pairs(self, capsys):
        code = main(
            ["serve", "--source", "zipf", "--length", "800",
             "--window", "15", "--memory", "30", "--domain", "10",
             "--algorithm", "EXACT", "--emit", "jsonl",
             "--summary-every", "1000"]
        )
        assert code == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines() if line]
        assert lines
        assert all(set(rec) == {"r", "s", "key"} for rec in lines)
        # the sink sees exactly what the run counted
        assert f"{len(lines)} output tuples" in captured.err

    def test_emit_broken_pipe_is_clean_shutdown(self, monkeypatch):
        # A downstream consumer closing stdout (`repro serve ... | head`)
        # is a normal way to end a streaming run: exit 0, no traceback.
        class ClosedPipe:
            def __init__(self):
                self._fd = os.open(os.devnull, os.O_WRONLY)
                self.writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > 3:
                    raise BrokenPipeError
                return len(text)

            def flush(self):
                pass

            def fileno(self):
                return self._fd

        fake = ClosedPipe()
        monkeypatch.setattr(sys, "stdout", fake)
        code = main(
            ["serve", "--source", "zipf", "--length", "800",
             "--window", "15", "--memory", "30", "--domain", "10",
             "--algorithm", "EXACT", "--emit", "jsonl",
             "--summary-every", "1000"]
        )
        assert code == 0
        assert fake.writes > 3  # the pipe actually broke mid-stream

    def test_replay_source_round_trip(self, capsys, tmp_path):
        from repro.streams.generators import zipf_pair
        from repro.streams.replay import save_pair_jsonl

        path = tmp_path / "traffic.jsonl"
        save_pair_jsonl(zipf_pair(500, 10, 1.0, seed=3), path)
        code = main(
            ["serve", "--source", "replay", "--replay", str(path),
             "--window", "20", "--memory", "10", "--summary-every", "200",
             "--estimator", "countmin"]
        )
        assert code == 0
        assert "500 ticks" in capsys.readouterr().err

    def test_replay_has_no_oracle(self, capsys, tmp_path):
        from repro.streams.generators import zipf_pair
        from repro.streams.replay import save_pair_jsonl

        path = tmp_path / "traffic.jsonl"
        save_pair_jsonl(zipf_pair(100, 10, 1.0, seed=3), path)
        code = main(
            ["serve", "--source", "replay", "--replay", str(path),
             "--window", "20", "--memory", "10"]
        )
        assert code == 2
        assert "online" in capsys.readouterr().err

    def test_truncated_replay_exits_2_naming_the_file(self, capsys, tmp_path):
        from repro.streams.generators import zipf_pair
        from repro.streams.replay import save_pair_jsonl

        path = tmp_path / "traffic.jsonl"
        save_pair_jsonl(zipf_pair(100, 10, 1.0, seed=3), path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # cut mid-record
        code = main(
            ["serve", "--source", "replay", "--replay", str(path),
             "--window", "20", "--memory", "10", "--estimator", "countmin"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}: line " in err
        assert "malformed JSON record" in err

    def test_replay_requires_a_path(self, capsys):
        code = main(["serve", "--source", "replay"])
        assert code == 2
        assert "--replay" in capsys.readouterr().err

    def test_batch_size_is_not_a_serve_option(self, capsys):
        # serve always passes on_summary, so no chunk lane could use it.
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--source", "zipf", "--length", "100",
                  "--batch-size", "64"])
        assert exit_info.value.code == 2
        assert "--batch-size" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["fast", "async"])
    def test_exact_overflow_exits_2_with_a_hint(self, engine, capsys):
        # Poisson bursts overflow EXACT's fixed 2w budget (here at t=738):
        # a one-line error and a hint, not a traceback.
        code = main(
            ["serve", "--source", "poisson", "--engine", engine,
             "--algorithm", "EXACT", "--window", "400", "--rate", "1.0",
             "--duration", "3000"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: memory overflow at t=738" in err
        assert "--memory" in err
        assert "Traceback" not in err

    def test_run_overflow_exits_2(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.core.engine import CapacityExceededError

        def overflow(*args, **kwargs):
            raise CapacityExceededError("memory overflow at t=5")

        monkeypatch.setattr(cli, "run", overflow)
        code = main(["run", "--algorithm", "EXACT", "--length", "100"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: memory overflow at t=5" in err
        assert "--memory" in err

    def test_estimator_needs_a_semantic_policy(self, capsys):
        code = main(
            ["serve", "--source", "zipf", "--length", "100",
             "--algorithm", "RAND", "--estimator", "ewma"]
        )
        assert code == 2
        assert "estimator" in capsys.readouterr().err
