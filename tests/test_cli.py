"""Tests for the command-line interface."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[list[str]]:
    """The argv of each ``repro`` command in README.md's fenced blocks.

    Continued lines are joined, ``# ...`` comments stripped and leading
    ``VAR=value`` assignments dropped; a command counts if what is left
    starts with ``python -m repro`` or ``repro``.
    """
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            while words and re.match(r"^[A-Za-z_][A-Za-z0-9_]*=", words[0]):
                words.pop(0)
            if words[:3] == ["python", "-m", "repro"]:
                commands.append(words[3:])
            elif words[:1] == ["repro"]:
                commands.append(words[1:])
    return commands


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
            ["sweep", "--cache-dir", "c",
             "--model", "er", "--model", "ba", "--dataset", "EMAIL",
             "--seed", "0", "--seed", "1", "--set", "epochs=2"])
        assert args.model == ["er", "ba"]
        assert args.seed == [0, 1]
        assert args.overrides == ["epochs=2"]
        assert args.workers == 2

    def test_sweep_requires_cache_dir(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--model", "er", "--dataset", "EMAIL"])
        assert exc.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_readme_commands_parse(self):
        """Every ``repro`` command shown in README.md parses."""
        commands = _readme_commands()
        assert any(argv[0] == "sweep" for argv in commands)
        for argv in commands:
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: "
                            f"repro {shlex.join(argv)}")


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
        with pytest.raises(SystemExit, match="workers must be >= 1"):
            main(["sweep", "--cache-dir", str(tmp_path / "c"),
                  "--model", "er", "--dataset", "EMAIL", "--profile",
                  "smoke", "--workers", "-1"])
        assert not (tmp_path / "c").exists()  # nothing ran

    def test_fairgen_on_unlabeled_without_surrogate_fails_cleanly(self):
        # Surrogate supervision is on by default; opting out restores the
        # old refusal for unlabeled datasets.
        with pytest.raises(SystemExit):
            main(["generate", "--dataset", "EMAIL", "--model", "fairgen",
                  "--no-surrogate-labels", "--profile", "smoke"])
