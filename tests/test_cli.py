"""CLI smoke tests: every subcommand through main() with captured output."""

import pytest

from repro.cli import main


class TestFitCheck:
    def test_block8_fits(self, capsys):
        code = main([
            "fit-check", "--layers", "1024", "1024", "--block", "8",
            "--projection", "512", "--peephole",
        ])
        assert code == 0
        assert "FITS" in capsys.readouterr().out

    def test_dense_does_not_fit(self, capsys):
        code = main([
            "fit-check", "--layers", "1024", "1024",
            "--projection", "512", "--peephole",
        ])
        assert code == 1
        assert "DOES NOT FIT" in capsys.readouterr().out


class TestBounds:
    def test_paper_bounds(self, capsys):
        code = main([
            "bounds", "--layers", "1024", "1024", "--projection", "512",
            "--peephole",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "lower bound" in out and "upper bound" in out


class TestPrice:
    def test_lstm_fft8(self, capsys):
        code = main([
            "price", "--layers", "1024", "--block", "8",
            "--projection", "512", "--peephole",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "FPS" in out and "PEs" in out

    def test_error_reported_for_dense(self, capsys):
        code = main(["price", "--layers", "1024"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCodegen:
    def test_writes_file(self, tmp_path, capsys):
        output = tmp_path / "cu.c"
        code = main([
            "codegen", "--cell", "gru", "--layers", "1024", "--block", "16",
            "-o", str(output),
        ])
        assert code == 0
        source = output.read_text()
        assert "#pragma HLS" in source
        assert source.count("{") == source.count("}")


class TestReportCommands:
    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "ESE" in out and "Headline ratios" in out

    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        assert "converges" in capsys.readouterr().out


class TestBench:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "emulator_forward" in out and "fft_matvec" in out

    def test_quick_suite_writes_artifact(self, capsys, tmp_path):
        code = main([
            "bench", "--quick", "--only", "engine_cache",
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        artifact = tmp_path / "BENCH_engine_cache.json"
        assert artifact.exists()
        import json

        assert json.loads(artifact.read_text())["quick"] is True

    def test_no_json_skips_artifact(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--quick", "--only", "engine_cache",
                     "--no-json"]) == 0
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_unknown_suite_is_an_error(self, capsys):
        assert main(["bench", "--only", "nope"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestServe:
    SPEC_ARGS = ["serve", "--layers", "32", "--block", "4",
                 "--sessions", "2", "--frames", "6"]

    def test_selftest_ok_exits_zero(self, capsys):
        assert main(self.SPEC_ARGS + ["--selftest"]) == 0
        assert "selftest ok" in capsys.readouterr().out

    def test_conformance_failure_exits_one_with_actionable_stderr(
        self, capsys, monkeypatch
    ):
        """Regression (PR 5): a conformance violation used to surface as
        the generic `error:` handler (exit 2); a serving-blocker must
        exit 1 with a SELFTEST FAILED line that says what to do."""
        import repro.runtime
        from repro.runtime import ConformanceError

        def broken(executor, inputs, rows=None):
            raise ConformanceError(
                "step_rows() row 0 differs from a standalone batch-1 step"
            )

        monkeypatch.setattr(repro.runtime, "check_conformance", broken)
        code = main(self.SPEC_ARGS + ["--selftest"])
        err = capsys.readouterr().err
        assert code == 1
        assert "SELFTEST FAILED" in err
        assert "conformance contract" in err
        assert "repro serve --selftest" in err  # the actionable re-run hint

    def test_net_serve_selftest_round_trip(self, capsys):
        """The wire path: ephemeral port, 2 workers, byte-identity."""
        code = main(self.SPEC_ARGS + [
            "--selftest", "--port", "0", "--workers", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving on 127.0.0.1:" in out
        assert "selftest ok" in out and "byte-identical" in out
        assert "worker 0:" in out and "worker 1:" in out

    def test_net_conformance_failure_also_exits_one(
        self, capsys, monkeypatch
    ):
        import repro.runtime
        from repro.runtime import ConformanceError

        monkeypatch.setattr(
            repro.runtime, "check_conformance",
            lambda *a, **k: (_ for _ in ()).throw(
                ConformanceError("broken backend")
            ),
        )
        code = main(self.SPEC_ARGS + [
            "--selftest", "--port", "0", "--workers", "1",
        ])
        assert code == 1
        assert "SELFTEST FAILED" in capsys.readouterr().err


    def test_net_serve_refuses_delay_ms(self, capsys):
        """Neither host has a batching window any more: the flag is
        refused by the parser before anything is compiled or spawned,
        not silently ignored."""
        with pytest.raises(SystemExit) as exit_info:
            main(self.SPEC_ARGS + [
                "--selftest", "--port", "0", "--delay-ms", "5",
            ])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert "--delay-ms" in captured.err
        assert "serving on" not in captured.out

    def test_net_serve_refuses_an_explicit_zero_delay(self, capsys):
        """``--delay-ms 0`` is refused too, in either serving mode."""
        for extra in (["--port", "0"], []):
            with pytest.raises(SystemExit) as exit_info:
                main(self.SPEC_ARGS + ["--selftest", *extra, "--delay-ms", "0"])
            assert exit_info.value.code == 2
            assert "--delay-ms" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
