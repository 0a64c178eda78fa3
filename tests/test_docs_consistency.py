"""Documentation consistency: what the docs reference must exist."""

import argparse
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


class TestDesignDocument:
    def test_bench_files_exist(self):
        """Every bench target named in DESIGN.md's experiment index exists."""
        text = (ROOT / "DESIGN.md").read_text()
        referenced = set(re.findall(r"benchmarks/(bench_\w+\.py)", text))
        assert referenced, "DESIGN.md must reference bench files"
        for name in referenced:
            assert (ROOT / "benchmarks" / name).exists(), name

    def test_every_bench_in_design(self):
        """Conversely, every bench file is documented in DESIGN.md."""
        text = (ROOT / "DESIGN.md").read_text()
        for path in (ROOT / "benchmarks").glob("bench_*.py"):
            assert path.name in text, f"{path.name} missing from DESIGN.md"

    def test_paper_confirmation_present(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "matches the claimed paper" in text


class TestReadme:
    def test_examples_exist(self):
        text = (ROOT / "README.md").read_text()
        referenced = set(re.findall(r"`(\w+\.py)`", text))
        for name in referenced:
            assert (ROOT / "examples" / name).exists(), name

    def test_algorithm_modules_exist(self):
        text = (ROOT / "README.md").read_text()
        modules = set(re.findall(r"`repro\.algorithms\.(\w+)`", text))
        assert modules
        for module in modules:
            assert (ROOT / "src" / "repro" / "algorithms"
                    / f"{module}.py").exists(), module

    def test_cli_commands_registered(self):
        from repro.cli import build_parser
        text = (ROOT / "README.md").read_text()
        used = set(re.findall(r"python -m repro (\w+)", text))
        parser = build_parser()
        # Extract subcommand names from the parser.
        subactions = [
            action for action in parser._actions
            if hasattr(action, "choices") and action.choices
        ]
        known = set(subactions[0].choices)
        assert used <= known, used - known


class TestExperimentsDocument:
    def test_references_results_files(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        referenced = set(re.findall(r"benchmarks/results/(\w+\.txt)", text))
        assert referenced
        # Files may not exist before the first bench run, but their bench
        # producers must: ablation_<x>.txt <- bench_ablation_<x>.py, etc.
        for name in referenced:
            stem = name.removesuffix(".txt")
            producer = ROOT / "benchmarks" / f"bench_{stem}.py"
            assert producer.exists(), f"no bench produces {name}"

    def test_covers_all_figures_and_tables(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for table in (1, 2, 3):
            assert f"Table {table}" in text
        for figure in range(1, 17):
            assert f"Fig. {figure}" in text, f"Figure {figure} missing"


def _subcommands(parser):
    """A parser's subcommand parsers by name; empty when it has none."""
    return next((action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)), {})


class TestCliInvocations:
    DOCUMENTS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                 ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml")

    def test_every_documented_flag_exists(self):
        """Each ``--flag`` of a documented ``[python -m] repro <command>``
        (or ``repro cache prune``-style subcommand) is one its parser
        knows."""
        from repro.cli import build_parser

        commands = _subcommands(build_parser())
        documents = [ROOT / name for name in self.DOCUMENTS]
        documents += sorted((ROOT / "docs").glob("*.md"))
        invocations, unknown = 0, []
        for path in documents:
            # Join backslash continuations, and the folded YAML lines of
            # ci.yml that go on with a flag.
            text = re.sub(r"\\\n\s*|\n(?=[ \t]+--)", " ", path.read_text())
            for name, rest in re.findall(
                    r"(?<![\w./-])repro\s+(\w+)([^\n`]*)", text):
                if name not in commands:
                    continue  # prose, or an import
                rest = re.split(r"\s#|&&|;|\|", rest)[0]
                words = rest.split()
                parser = _subcommands(commands[name]).get(
                    words[0] if words else "", commands[name])
                known = {option for action in parser._actions
                         for option in action.option_strings}
                invocations += 1
                unknown += [f"{path.name}: repro {name} {flag}"
                            for flag in re.findall(r"--[a-z][\w-]*", rest)
                            if flag not in known]
        assert invocations >= 30
        assert not unknown, unknown
