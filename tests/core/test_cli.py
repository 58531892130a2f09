"""Tests for the command-line interface."""

import json

import pytest

from repro import cli, paper
from repro.cli import main
from repro.resilience import ResilienceConfig


@pytest.fixture
def spec_file(tmp_path):
    payload = {
        "vms": [{"vcpus": 1}, {"vcpus": 1}],
        "pcpus": 1,
        "scheduler": "rrs",
        "sim_time": 300,
        "warmup": 50,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def noisy_spec_file(tmp_path):
    # A 2-VCPU VM makes barrier stalls (and thus utilization) depend on
    # the sampled workloads, so replications and seeds differ.
    payload = {
        "vms": [{"vcpus": 2}, {"vcpus": 1}],
        "pcpus": 1,
        "scheduler": "rrs",
        "sim_time": 300,
        "warmup": 50,
    }
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestListSchedulers:
    def test_prints_builtins(self, capsys):
        assert main(["list-schedulers"]) == 0
        out = capsys.readouterr().out
        for name in ("rrs", "scs", "rcs", "balance", "credit", "fifo"):
            assert name in out.splitlines()


class TestRun:
    def test_runs_spec_and_prints_metrics(self, spec_file, capsys):
        code = main(
            ["run", "--spec", spec_file, "--min-replications", "2",
             "--max-replications", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pcpu_utilization" in out
        assert "vcpu_availability[VCPU1.1]" in out
        assert "2 replications" in out

    def test_csv_output(self, spec_file, capsys):
        code = main(
            ["run", "--spec", spec_file, "--csv", "--min-replications", "2",
             "--max-replications", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("label,")
        assert "pcpu_utilization_mean" in out

    def test_probes_flag(self, spec_file, capsys):
        main(
            ["run", "--spec", spec_file, "--probes", "--min-replications", "2",
             "--max-replications", "2"]
        )
        out = capsys.readouterr().out
        assert "blocked_fraction" in out

    def test_missing_file(self, capsys):
        assert main(["run", "--spec", "/nonexistent.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--spec", str(path)]) == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_invalid_spec(self, tmp_path, capsys):
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps({"vms": [], "pcpus": 1}))
        assert main(["run", "--spec", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_framework_error_is_one_structured_line(self, spec_file, capsys):
        # A negative retry budget is a ConfigurationError; it must exit
        # 1 with a single "error: Type: message" line, no traceback.
        assert main(["run", "--spec", spec_file, "--retries", "-1"]) == 1
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error: ConfigurationError:")
        assert "Traceback" not in err

    def test_parallel_jobs_flag_matches_serial(self, spec_file, capsys):
        base = ["run", "--spec", spec_file, "--csv",
                "--min-replications", "2", "--max-replications", "2"]
        assert main(base) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_cache_dir_resumes_an_interrupted_run(
        self, noisy_spec_file, tmp_path, capsys, executions
    ):
        base = ["run", "--spec", noisy_spec_file, "--csv",
                "--min-replications", "3", "--max-replications", "3",
                "--target-half-width", "1e-9"]
        assert main(base) == 0
        uninterrupted = capsys.readouterr().out
        cache = tmp_path / "cache"
        assert main(base + ["--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        # Writes are atomic, so a kill leaves whole entries or none:
        # delete two of the three.
        entries = sorted(cache.rglob("*.json"))
        assert len(entries) == 3
        for entry in entries[:2]:
            entry.unlink()

        executions.clear()
        assert main(base + ["--cache-dir", str(cache)]) == 0
        assert capsys.readouterr().out == uninterrupted
        assert len(executions) == 2

    def test_retries_and_timeout_flags_accepted(self, spec_file, capsys):
        assert main(["run", "--spec", spec_file, "--csv",
                     "--min-replications", "2", "--max-replications", "2",
                     "--retries", "1", "--timeout", "60"]) == 0
        assert capsys.readouterr().out

    def test_cache_dir_memoizes_across_invocations(self, spec_file, tmp_path,
                                                   capsys):
        import os

        cache = str(tmp_path / "cache")
        base = ["run", "--spec", spec_file, "--csv",
                "--min-replications", "2", "--max-replications", "2",
                "--cache-dir", cache]
        assert main(base) == 0
        first = capsys.readouterr().out
        entries = [name for _, _, names in os.walk(cache) for name in names]
        assert entries, "no cache entries were written"
        assert main(base) == 0
        assert capsys.readouterr().out == first

    def test_no_cache_vetoes_cache_dir(self, spec_file, tmp_path, capsys):
        import os

        cache = str(tmp_path / "cache")
        assert main(["run", "--spec", spec_file, "--csv",
                     "--min-replications", "2", "--max-replications", "2",
                     "--cache-dir", cache, "--no-cache"]) == 0
        capsys.readouterr()
        assert not os.path.exists(cache)

    def test_seed_changes_results(self, noisy_spec_file, capsys):
        main(["run", "--spec", noisy_spec_file, "--csv", "--seed", "1",
              "--min-replications", "2", "--max-replications", "2"])
        first = capsys.readouterr().out
        main(["run", "--spec", noisy_spec_file, "--csv", "--seed", "2",
              "--min-replications", "2", "--max-replications", "2"])
        second = capsys.readouterr().out
        assert first != second


class TestParseKv:
    """``k=v`` flag coercion: bool -> int -> float -> str, no guessing."""

    def test_coercion_matrix(self):
        from repro.cli import _parse_kv

        parsed = _parse_kv(
            "i=3,neg=-7,f=0.25,sci=1e3,negsci=-2.5E-2,s=condition_based,"
            "t=true,T=TRUE,fa=false",
            "--x",
        )
        assert parsed == {
            "i": 3, "neg": -7, "f": 0.25, "sci": 1000.0, "negsci": -0.025,
            "s": "condition_based", "t": True, "T": True, "fa": False,
        }
        # The coerced types are exact, not bool-as-int surprises.
        assert type(parsed["i"]) is int
        assert type(parsed["sci"]) is float
        assert type(parsed["t"]) is bool

    @pytest.mark.parametrize(
        "payload",
        ["a=yes", "a=no", "a=on", "a=OFF", "a=y", "a=nan", "a=inf",
         "a=-inf", "a=Infinity", "a="],
    )
    def test_ambiguous_values_rejected(self, payload):
        from repro.cli import _parse_kv
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            _parse_kv(payload, "--x")

    def test_malformed_pairs_rejected(self):
        from repro.cli import _parse_kv
        from repro.errors import ConfigurationError

        for text in ["novalue", "=5", "a=1,=2"]:
            with pytest.raises(ConfigurationError):
                _parse_kv(text, "--x")

    def test_rejection_is_one_structured_line(self, spec_file, capsys):
        assert main(["run", "--spec", spec_file,
                     "--degradation", "p=nan"]) == 1
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith("error: ConfigurationError:")

    def test_degradation_flag_round_trips(self, spec_file, capsys):
        assert main(["run", "--spec", spec_file, "--csv",
                     "--min-replications", "2", "--max-replications", "2",
                     "--degradation", "p=0.1,h_max=4,mtbe=50"]) == 0
        assert capsys.readouterr().out.startswith("label,")


class TestBatchEngineFlag:
    """``--engine`` takes the two spec engines; ``batch`` is not one."""

    @staticmethod
    def assert_csv_identical_across_engines(tmp_path, capsys, reps, *health):
        spec = tmp_path / "fig8.json"
        spec.write_text(json.dumps({
            "vms": [{"vcpus": 2}, {"vcpus": 1}, {"vcpus": 1}], "pcpus": 2,
            "scheduler": "rrs", "sim_time": 600, "warmup": 100,
        }))
        outputs = {}
        for engine in ("rescan", "compiled"):
            assert main([
                "run", "--spec", str(spec), "--seed", "7",
                "--min-replications", reps, "--max-replications", reps,
                "--engine", engine, "--csv", *health,
            ]) == 0
            outputs[engine] = capsys.readouterr().out
        assert outputs["rescan"].startswith("label,")
        assert outputs["compiled"] == outputs["rescan"]

    def test_plain_csv_byte_identical_across_engines(self, tmp_path, capsys):
        # The Figure-8 shape: every engine must print the same bytes.
        self.assert_csv_identical_across_engines(tmp_path, capsys, "3")

    def test_degraded_csv_byte_identical_across_engines(self, tmp_path, capsys):
        # The same under live degradation, condition-based maintenance
        # and hypervisor overhead.  The compiled engine fast-forwards
        # the pristine spans between health events, so this guards the
        # certificate's health and overhead checks end to end.
        self.assert_csv_identical_across_engines(
            tmp_path, capsys, "2",
            "--degradation", "p=0.2,h_max=4,mtbe=100",
            "--maintenance", "policy=condition_based,crews=1,mttr=15,threshold=2",
            "--hv-overhead", "2",
        )


class TestTraceAndProfileFlags:
    """The ``--trace`` / ``--profile`` / ``--engine`` observability matrix."""

    SMP_SPEC = {
        "vms": [{"vcpus": 2}, {"vcpus": 1}],
        "pcpus": 2,
        "scheduler": "rrs",
        "sim_time": 200,
        "warmup": 20,
    }

    @pytest.fixture
    def smp_spec_file(self, tmp_path):
        path = tmp_path / "smp.json"
        path.write_text(json.dumps(self.SMP_SPEC))
        return str(path)

    def run_traced(self, spec_file, tmp_path, *extra):
        trace = str(tmp_path / "trace.jsonl")
        code = main(["run", "--spec", spec_file, "--csv",
                     "--min-replications", "2", "--max-replications", "2",
                     "--trace", trace, *extra])
        assert code == 0
        return trace

    @pytest.mark.parametrize("engine", ["compiled", "rescan"])
    def test_jsonl_trace_schema_and_order(self, smp_spec_file, tmp_path,
                                          capsys, engine):
        from repro.observability import check_trace
        from repro.observability.trace import RECORD_FIELDS

        trace = self.run_traced(smp_spec_file, tmp_path, "--engine", engine)
        err = capsys.readouterr().err
        assert "trace:" in err and "trace.jsonl" in err
        records = [json.loads(line)
                   for line in open(trace, encoding="utf-8") if line.strip()]
        assert records, "trace file is empty"
        kinds = {r["kind"] for r in records}
        assert {"run.start", "run.end", "sched.in", "activity.fire"} <= kinds
        # the driver grants the whole floor (replications 0-1) as one group
        dispatches = [r for r in records if r["kind"] == "sweep.dispatch"]
        assert [(r["replication"], r["batch"]) for r in dispatches] == [(0, 2)]
        # ... and records the grant before its replications run
        order = [r["kind"] for r in records]
        assert order.index("sweep.dispatch") < order.index("run.start")
        # schema: every record carries kind/t/seq plus exactly its fields
        last_seq, last_t = -1, None
        for record in records:
            assert set(record) == {"kind", "t", "seq"} | set(
                RECORD_FIELDS[record["kind"]]
            ), record["kind"]
            assert record["seq"] > last_seq
            last_seq = record["seq"]
            if record["kind"] == "sweep.dispatch":
                continue  # precedes the replication segments it grants
            # timestamps are monotone within each replication segment
            if record["kind"] == "run.start":
                last_t = record["t"]
            else:
                assert record["t"] >= last_t
                last_t = record["t"]
        # both replications are present, delimited by run markers
        assert sum(r["kind"] == "run.start" for r in records) == 2
        assert sum(r["kind"] == "run.end" for r in records) == 2
        assert not check_trace(records)

    def test_both_engines_trace_identically_via_cli(self, smp_spec_file,
                                                    tmp_path, capsys):
        # Compiled coalesces idle clock ticks into engine.fastforward
        # records, so the streams are compared after golden
        # normalization, which keeps every scheduler-level record.
        from repro.observability import golden

        def load(engine):
            path = self.run_traced(
                smp_spec_file, tmp_path, "--engine", engine)
            capsys.readouterr()
            return golden.normalize(
                json.loads(line) for line in open(path, encoding="utf-8")
            )

        compiled = load("compiled")
        assert any(record["kind"] == "sched.in" for record in compiled)
        assert compiled == load("rescan")

    def test_engine_beside_resilience_flags_is_not_dropped(
        self, smp_spec_file, tmp_path, capsys
    ):
        # --retries builds a resilience config; --engine must still reach
        # every replication.
        trace = self.run_traced(
            smp_spec_file, tmp_path, "--engine", "rescan", "--retries", "1")
        capsys.readouterr()
        records = [json.loads(line) for line in open(trace, encoding="utf-8")]
        engines = [r["engine"] for r in records if r["kind"] == "run.start"]
        assert engines == ["rescan", "rescan"]

    def test_chrome_format(self, smp_spec_file, tmp_path, capsys):
        trace = str(tmp_path / "trace.json")
        assert main(["run", "--spec", smp_spec_file, "--csv",
                     "--min-replications", "2", "--max-replications", "2",
                     "--trace", trace, "--trace-format", "chrome"]) == 0
        capsys.readouterr()
        payload = json.loads(open(trace, encoding="utf-8").read())
        events = payload["traceEvents"]
        assert any(e["ph"] == "X" for e in events), "no schedule slices"
        assert any(e["ph"] == "M" for e in events), "no track metadata"

    def test_profile_prints_subsystem_table(self, spec_file, capsys):
        assert main(["run", "--spec", spec_file,
                     "--min-replications", "2", "--max-replications", "2",
                     "--profile"]) == 0
        err = capsys.readouterr().err
        assert "profile:" in err
        assert "vmm.scheduling_func" in err
        assert "engine.completion" in err
        assert "tick consumers applied directly" in err
        assert "executed ticks by refusal: " in err

    def test_trace_refuses_parallel_jobs(self, spec_file, tmp_path, capsys):
        assert main(["run", "--spec", spec_file,
                     "--trace", str(tmp_path / "t.jsonl"), "--jobs", "2"]) == 1
        assert "serial" in capsys.readouterr().err

    def test_trace_refuses_timeout(self, spec_file, tmp_path, capsys):
        assert main(["run", "--spec", spec_file,
                     "--trace", str(tmp_path / "t.jsonl"),
                     "--timeout", "30"]) == 1
        assert "error: ConfigurationError" in capsys.readouterr().err

    def test_traced_run_matches_untraced(self, smp_spec_file, tmp_path,
                                         capsys):
        base = ["run", "--spec", smp_spec_file, "--csv",
                "--min-replications", "2", "--max-replications", "2"]
        assert main(base) == 0
        untraced = capsys.readouterr().out
        assert main(base + ["--trace", str(tmp_path / "t.jsonl")]) == 0
        traced = capsys.readouterr().out
        assert traced == untraced


class TestTables:
    def test_prints_both_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "TABLE 1" in out
        assert "TABLE 2" in out
        assert "Workload_Generator->Blocked" in out


class TestFigures:
    @pytest.fixture(autouse=True)
    def tiny_protocol(self, monkeypatch):
        # The quick protocol shrunk to CLI-test size.
        monkeypatch.setitem(
            cli.FIGURE_PROTOCOLS, "quick",
            {"sim_time": 300, "replications": (2, 2)},
        )

    def test_quick_figure9_through_real_cli(self, capsys):
        assert main(["figures", "--figure", "9"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "PCPU utilization" in out

    def test_sweep_jobs_flag_matches_serial(self, capsys):
        # --sweep-jobs routes the figure through the interleaved engine,
        # whose tables must be identical to the serial default.
        assert main(["figures", "--figure", "9"]) == 0
        serial = capsys.readouterr().out
        assert main(["figures", "--figure", "9", "--sweep-jobs", "1"]) == 0
        assert capsys.readouterr().out == serial

    def test_cache_dir_warms_figures(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        args = ["figures", "--figure", "9", "--cache-dir", cache]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_cache_dir_keeps_the_retry_budget(self, monkeypatch, tmp_path):
        # A cache must not change how failures are handled: both paths
        # hand run_figure8 the default retry budget.
        seen = []

        class Figure:
            table = "table"

        def fake_figure8(**knobs):
            seen.append(knobs)
            return Figure()

        monkeypatch.setattr(paper, "run_figure8", fake_figure8)
        cache = str(tmp_path / "cache")
        assert main(["figures", "--figure", "8"]) == 0
        assert main(["figures", "--figure", "8", "--cache-dir", cache]) == 0
        plain, cached = seen
        assert plain.pop("resilience") == ResilienceConfig()
        assert cached.pop("resilience") == ResilienceConfig(cache_dir=cache)
        assert cached == plain
