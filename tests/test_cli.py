"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for cmd in ("theory", "sweep", "selftest", "screen", "diagnose",
                    "plan", "serve", "submit", "status", "shutdown"):
            args = parser.parse_args(
                [cmd] + (["--fn", "8", "--zeta", "0.4"]
                         if cmd == "diagnose" else [])
            )
            assert callable(args.handler)

    def test_watch_requires_job_id(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["watch"])
        args = parser.parse_args(["watch", "job-0001"])
        assert args.job_id == "job-0001"

    def test_stimulus_choices(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "--stimulus", "square"])

    @pytest.mark.parametrize("verb", ["sweep", "screen", "submit"])
    def test_settle_flag_is_gone(self, verb, capsys):
        # Table 2's fixed wait is the only stage-0 policy.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([verb, "--settle", "fixed"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --settle" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--fault", "x"], ["--nonlinear"]])
    def test_screen_takes_no_device_flags(self, flags, capsys):
        # The screen's devices are the healthy die plus the whole fault
        # library; a device flag would be silently ignored.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["screen", *flags])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in \
            capsys.readouterr().err

    def test_lot_cold_flag_is_gone(self, capsys):
        # A lot always warms a cache; `--engine scalar` is the reference.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["lot", "--cold"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --cold" in capsys.readouterr().err


class TestTheory:
    def test_prints_design_point(self, capsys):
        assert main(["theory"]) == 0
        out = capsys.readouterr().out
        assert "8.743 Hz" in out
        assert "0.4260" in out
        assert "theoretical closed loop" in out

    def test_nonlinear_variant(self, capsys):
        assert main(["theory", "--nonlinear"]) == 0
        assert "paper-hct4046" in capsys.readouterr().out

    def test_faulty_variant(self, capsys):
        assert main(["theory", "--fault", "Ko half nominal"]) == 0
        out = capsys.readouterr().out
        assert "6.18" in out  # fn drops by sqrt(2)

    def test_unknown_fault_exits(self):
        with pytest.raises(SystemExit):
            main(["theory", "--fault", "gremlins"])


class TestSweep:
    def test_runs_small_sweep(self, capsys):
        assert main(["sweep", "--points", "6", "--stimulus", "sine"]) == 0
        out = capsys.readouterr().out
        assert "measured transfer function" in out
        assert "Pure Sine FM" in out


class TestSelftest:
    def test_healthy_returns_zero(self, capsys):
        # A sweep too sparse to sample the peak biases extraction, so
        # use a production-like tone count.
        assert main(["selftest", "--points", "10", "--stimulus", "sine"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_faulty_returns_nonzero(self, capsys):
        code = main([
            "selftest", "--points", "10", "--stimulus", "sine",
            "--fault", "Ko half nominal",
        ])
        assert code == 1
        assert "overall: FAIL" in capsys.readouterr().out


class TestDiagnose:
    def test_ranks_components(self, capsys):
        assert main(["diagnose", "--fn", "6.18", "--zeta", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "Ko" in out and "rank" in out

    def test_rejects_nonsense(self, capsys):
        assert main(["diagnose", "--fn", "-3", "--zeta", "0.3"]) == 2


class TestPlan:
    def test_feasibility_table(self, capsys):
        assert main(["plan", "--masters", "1e6", "1e7"]) == 0
        out = capsys.readouterr().out
        assert "too coarse" in out
        assert "OK" in out


class TestServiceCommands:
    """Client commands against a socket nobody is serving.

    The full serve/submit/watch loop is exercised end-to-end in
    test_service_protocol; here the CLI surface just has to parse and
    fail helpfully when the service is down.
    """

    def test_submit_without_service_fails_helpfully(self, capsys, tmp_path):
        sock = str(tmp_path / "absent.sock")
        assert main(["submit", "--socket", sock, "--timeout", "1"]) == 2
        out = capsys.readouterr().out
        assert "submit failed" in out
        assert "serve" in out  # points the user at `python -m repro serve`

    def test_watch_without_service_fails_helpfully(self, capsys, tmp_path):
        sock = str(tmp_path / "absent.sock")
        code = main(["watch", "job-0001", "--socket", sock, "--timeout", "1"])
        assert code == 2
        assert "watch failed" in capsys.readouterr().out

    def test_status_without_service_fails_helpfully(self, capsys, tmp_path):
        sock = str(tmp_path / "absent.sock")
        assert main(["status", "--socket", sock, "--timeout", "1"]) == 2
        assert "status failed" in capsys.readouterr().out

    def test_shutdown_without_service_fails_helpfully(self, capsys, tmp_path):
        sock = str(tmp_path / "absent.sock")
        assert main(["shutdown", "--socket", sock, "--timeout", "1"]) == 2
        assert "shutdown failed" in capsys.readouterr().out


class TestSweepReport:
    def test_writes_markdown_report(self, capsys, tmp_path):
        out = tmp_path / "dev.md"
        assert main([
            "sweep", "--points", "8", "--stimulus", "sine",
            "--out", str(out),
        ]) == 0
        text = out.read_text()
        assert text.startswith("# BIST report")
        assert "## Limit comparison" in text
        assert f"wrote {out}" in capsys.readouterr().out
