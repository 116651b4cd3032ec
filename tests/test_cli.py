"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--dataset", "EMAIL", "--model", "er"])
        assert args.command == "generate"
        assert args.dataset == "EMAIL"
        assert args.seed == 0

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["generate", "--dataset", "EMAIL", "--model", "bogus"])

    def test_augment_restricted_to_labeled(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["augment", "--dataset", "EMAIL", "--model", "fairgen"])

    def test_sweep_accumulates_axes(self):
        args = build_parser().parse_args(
            ["sweep", "--queue-dir", "q", "--cache-dir", "c",
             "--model", "er", "--model", "ba", "--dataset", "EMAIL",
             "--seed", "0", "--seed", "1", "--set", "epochs=2"])
        assert args.model == ["er", "ba"]
        assert args.seed == [0, 1]
        assert args.overrides == ["epochs=2"]
        assert args.workers == 2

    def test_sweep_requires_queue_and_cache(self):
        # Validation happens in the command (not argparse) so that
        # --status can run without the grid arguments.
        with pytest.raises(SystemExit, match="--queue-dir"):
            main(["sweep", "--model", "er", "--dataset", "EMAIL"])

    def test_sweep_status_flag_parses_alone(self):
        args = build_parser().parse_args(["sweep", "--status", "qdir"])
        assert args.status == "qdir"

    def test_worker_args(self):
        args = build_parser().parse_args(
            ["worker", "queue", "--cache-dir", "c", "--max-jobs", "3"])
        assert args.queue_dir == "queue"
        assert args.max_jobs == 3
        assert not args.keep_alive


class TestCommands:
    def test_datasets_prints_table(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("EMAIL", "BLOG", "ACM"):
            assert name in out

    def test_generate_er(self, capsys):
        assert main(["generate", "--dataset", "EMAIL", "--model",
                     "er"]) == 0
        out = capsys.readouterr().out
        assert "generated" in out

    def test_evaluate_ba(self, capsys):
        assert main(["evaluate", "--dataset", "CA", "--model", "ba"]) == 0
        out = capsys.readouterr().out
        assert "mean R" in out

    def test_evaluate_fairgen_small(self, capsys):
        assert main(["evaluate", "--dataset", "BLOG", "--model", "fairgen",
                     "--cycles", "2", "--generator-steps", "2"]) == 0
        out = capsys.readouterr().out
        assert "mean R+" in out

    def test_sweep_negative_workers_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="workers must be >= 0"):
            main(["sweep", "--queue-dir", str(tmp_path / "q"),
                  "--cache-dir", str(tmp_path / "c"), "--model", "er",
                  "--dataset", "EMAIL", "--profile", "smoke",
                  "--workers", "-1"])

    def test_fairgen_on_unlabeled_without_surrogate_fails_cleanly(self):
        # Surrogate supervision is on by default; opting out restores the
        # old refusal for unlabeled datasets.
        with pytest.raises(SystemExit):
            main(["generate", "--dataset", "EMAIL", "--model", "fairgen",
                  "--no-surrogate-labels", "--profile", "smoke"])
