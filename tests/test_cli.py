"""Tests for the command-line interface."""

import pytest

from repro.cli import COMMANDS, build_parser, main


class TestParser:
    def test_known_commands_parse(self):
        parser = build_parser()
        for name in COMMANDS:
            args = parser.parse_args([name])
            assert args.command == name
            assert args.scale == "unit"

    def test_all_command(self):
        args = build_parser().parse_args(["all", "--scale", "unit", "--seed", "3"])
        assert args.command == "all"
        assert args.seed == 3

    def test_jobs_and_timings_flags(self):
        args = build_parser().parse_args(["fig6", "--jobs", "2", "--timings"])
        assert args.jobs == 2
        assert args.timings is True
        defaults = build_parser().parse_args(["fig6"])
        # Unset jobs lets the backend decide: serial by default, one
        # worker per CPU for the explicitly parallel backends.
        assert defaults.jobs is None
        assert defaults.timings is False

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2", "--scale", "galactic"])


class TestExecution:
    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        output = capsys.readouterr().out
        assert "wasted storage" in output

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_fig6_unit_scale(self, capsys):
        assert main(["fig6", "--scale", "unit"]) == 0
        output = capsys.readouterr().out
        assert "Fig 6 panel" in output
        assert "HARP-U" in output

    def test_fig6_parallel_matches_serial(self, capsys):
        assert main(["fig6", "--scale", "unit"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig6", "--scale", "unit", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_fig10_parallel_matches_serial(self, capsys):
        assert main(["fig10", "--scale", "unit"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig10", "--scale", "unit", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_timings_flag_appends_table(self, capsys):
        assert main(["fig6", "--scale", "unit", "--timings"]) == 0
        assert "Sweep timings" in capsys.readouterr().out

    def test_seed_changes_nothing_for_closed_form(self, capsys):
        main(["fig2", "--seed", "1"])
        first = capsys.readouterr().out
        main(["fig2", "--seed", "2"])
        second = capsys.readouterr().out
        assert first == second

    def test_deterministic_given_seed(self, capsys):
        main(["table2", "--seed", "5"])
        first = capsys.readouterr().out
        main(["table2", "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_ext_interleaving(self, capsys):
        assert main(["ext-interleaving"]) == 0
        assert "Layout extension" in capsys.readouterr().out

    def test_ext_dec(self, capsys):
        assert main(["ext-dec"]) == 0
        assert "DEC extension" in capsys.readouterr().out


class TestBackendAndResumeFlags:
    def test_backend_and_resume_parse(self):
        args = build_parser().parse_args(
            ["fig6", "--backend", "socket://0.0.0.0:7071", "--resume", "cells.jsonl"]
        )
        assert args.backend == "socket://0.0.0.0:7071"
        assert args.resume == "cells.jsonl"
        defaults = build_parser().parse_args(["fig6"])
        assert defaults.backend is None
        assert defaults.resume is None

    def test_worker_subcommand_parses(self):
        args = build_parser().parse_args(["worker", "--connect", "10.0.0.2:7071"])
        assert args.command == "worker"
        assert args.connect == "10.0.0.2:7071"
        assert args.linger == 10.0
        args = build_parser().parse_args(
            ["worker", "--connect", ":7071", "--linger", "0"]
        )
        assert args.linger == 0.0

    def test_worker_requires_connect(self):
        with pytest.raises(SystemExit):
            main(["worker"])

    def test_paper_scale_parses(self):
        args = build_parser().parse_args(["fig6", "--scale", "paper"])
        assert args.scale == "paper"

    def test_unknown_backend_rejected(self, capsys):
        with pytest.raises(ValueError, match="unknown backend"):
            main(["fig6", "--scale", "unit", "--backend", "carrier-pigeon"])
        capsys.readouterr()

    def test_fig6_socket_backend_matches_serial(self, capsys):
        """End-to-end: 2 spawned worker processes, bit-identical exhibit."""
        assert main(["fig6", "--scale", "unit", "--backend", "serial"]) == 0
        serial = capsys.readouterr().out
        assert main(["fig6", "--scale", "unit", "--backend", "socket", "--jobs", "2"]) == 0
        socket_run = capsys.readouterr().out
        assert serial == socket_run

    def test_fig6_resume_roundtrip(self, capsys, tmp_path):
        """A resumed rerun reads the store and renders identically."""
        store = tmp_path / "fig6.jsonl"
        assert main(["fig6", "--scale", "unit"]) == 0
        fresh = capsys.readouterr().out
        assert main(["fig6", "--scale", "unit", "--resume", str(store)]) == 0
        first = capsys.readouterr().out
        size_after_first = store.stat().st_size
        assert main(["fig6", "--scale", "unit", "--resume", str(store)]) == 0
        second = capsys.readouterr().out
        assert fresh == first == second
        assert store.stat().st_size == size_after_first  # all cells reused

    def test_all_with_resume_gives_fig10_its_own_store(self, capsys, tmp_path):
        """`all --resume PATH` shares the sweep store across the sweep
        exhibits but must route fig10's different record family to the
        PATH.fig10 sibling instead of crashing on the sweep header."""
        store = tmp_path / "all.jsonl"
        assert main(["all", "--scale", "unit"]) == 0
        fresh = capsys.readouterr().out
        assert main(["all", "--scale", "unit", "--resume", str(store)]) == 0
        resumed = capsys.readouterr().out
        assert resumed == fresh
        assert store.exists()  # sweep cells
        assert (tmp_path / "all.jsonl.fig10").exists()  # case-study shards
        # And a rerun resumes everything without recomputation errors.
        assert main(["all", "--scale", "unit", "--resume", str(store)]) == 0
        assert capsys.readouterr().out == fresh

    def test_fig10_resume_roundtrip(self, capsys, tmp_path):
        """The case study persists and resumes through --resume too."""
        store = tmp_path / "fig10.jsonl"
        assert main(["fig10", "--scale", "unit"]) == 0
        fresh = capsys.readouterr().out
        assert main(["fig10", "--scale", "unit", "--resume", str(store)]) == 0
        first = capsys.readouterr().out
        size_after_first = store.stat().st_size
        assert main(["fig10", "--scale", "unit", "--resume", str(store)]) == 0
        second = capsys.readouterr().out
        assert fresh == first == second
        assert store.stat().st_size == size_after_first  # all shards reused


class TestHardeningFlags:
    """Socket-fleet hardening knobs: parsing and misuse errors."""

    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "fig6",
                "--backend",
                "socket://0.0.0.0:7071",
                "--auth-token",
                "s3cret",
                "--workers-expected",
                "8",
                "--heartbeat-timeout",
                "30",
            ]
        )
        assert args.auth_token == "s3cret"
        assert args.workers_expected == 8
        assert args.heartbeat_timeout == 30.0

    def test_auth_token_falls_back_to_environment_for_socket(self, monkeypatch):
        """The env var arms a socket backend without any explicit flag."""
        from repro.cli import _execution_backend
        from repro.experiments.backends import SocketBackend

        monkeypatch.setenv("REPRO_AUTH_TOKEN", "from-env")
        args = build_parser().parse_args(["fig6", "--backend", "socket", "--jobs", "2"])
        backend = _execution_backend(args)
        assert isinstance(backend, SocketBackend)
        assert backend.auth_token == "from-env"

    def test_spec_classification_matches_resolver_normalization(self, monkeypatch):
        """A capitalized socket spec must still be recognized as socket,
        or the ambient env token would silently not be applied."""
        from repro.cli import _execution_backend
        from repro.experiments.backends import SocketBackend

        monkeypatch.setenv("REPRO_AUTH_TOKEN", "from-env")
        args = build_parser().parse_args(
            ["fig6", "--backend", " Socket://127.0.0.1:7071 ", "--jobs", "0"]
        )
        backend = _execution_backend(args)
        assert isinstance(backend, SocketBackend)
        assert backend.auth_token == "from-env"

    def test_ambient_env_token_does_not_break_serial_runs(self, monkeypatch, capsys):
        """Exporting REPRO_AUTH_TOKEN for a campaign must leave ordinary
        non-socket runs in the same shell untouched."""
        monkeypatch.setenv("REPRO_AUTH_TOKEN", "campaign-secret")
        assert main(["fig2"]) == 0
        assert "wasted storage" in capsys.readouterr().out

    def test_empty_auth_token_refused(self, monkeypatch, capsys):
        """An empty secret is a failed shell substitution, never a
        silently-open fleet."""
        monkeypatch.delenv("REPRO_AUTH_TOKEN", raising=False)
        with pytest.raises(SystemExit, match="empty"):
            main(["fig6", "--scale", "unit", "--backend", "socket", "--auth-token", ""])
        monkeypatch.setenv("REPRO_AUTH_TOKEN", "")
        with pytest.raises(SystemExit, match="empty"):
            main(["fig6", "--scale", "unit", "--backend", "socket", "--jobs", "2"])
        capsys.readouterr()

    def test_hardening_without_socket_backend_rejected(self, capsys):
        with pytest.raises(SystemExit, match="socket"):
            main(["fig6", "--scale", "unit", "--auth-token", "x"])
        with pytest.raises(SystemExit, match="socket"):
            main(
                ["fig6", "--scale", "unit", "--backend", "process", "--workers-expected", "2"]
            )
        capsys.readouterr()

    def test_worker_flags_parse(self):
        args = build_parser().parse_args(
            ["worker", "--connect", ":7071", "--auth-token", "s3cret"]
        )
        assert args.auth_token == "s3cret"

    def test_wire_flag_removed(self, capsys):
        """repro-wire-v1 is the only codec, so there is no flag to pick one."""
        for argv in (
            ["fig6", "--backend", "socket", "--wire", "v1"],
            ["worker", "--connect", ":7071", "--wire", "v1"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
        assert "--wire" in capsys.readouterr().err

    def test_fig6_hardened_socket_matches_serial(self, capsys, monkeypatch):
        """End-to-end: auth + barrier + heartbeats on, bit-identical."""
        monkeypatch.delenv("REPRO_AUTH_TOKEN", raising=False)
        assert main(["fig6", "--scale", "unit", "--backend", "serial"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(
                [
                    "fig6",
                    "--scale",
                    "unit",
                    "--backend",
                    "socket",
                    "--jobs",
                    "2",
                    "--auth-token",
                    "ci-secret",
                    "--workers-expected",
                    "2",
                    "--heartbeat-timeout",
                    "30",
                ]
            )
            == 0
        )
        assert capsys.readouterr().out == serial


class TestStoreDispatch:
    def test_store_command_listed(self):
        args = build_parser().parse_args(["store"])
        assert args.command == "store"

    def test_store_requires_arguments(self):
        with pytest.raises(SystemExit):
            main(["store"])

    def test_store_after_options_gets_usage_error_not_crash(self, capsys):
        """'store' anywhere but first is a clean usage error, never a
        KeyError from the exhibit loop."""
        with pytest.raises(SystemExit, match="store"):
            main(["--scale", "unit", "store"])
        capsys.readouterr()
