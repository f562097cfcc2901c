"""Documentation consistency checks.

The docs promise CLI surface; the argparse tree delivers it.  These
tests keep the two from drifting: every ``--flag`` mentioned anywhere in
the markdown docs must exist on some ``repro`` subcommand, and every
subcommand must be documented in the README.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import TRACEABLE_COMMANDS, build_parser

REPO = Path(__file__).resolve().parent.parent

#: Markdown files whose flag mentions must match the CLI.
DOC_FILES = sorted(
    p for p in [
        REPO / "README.md",
        REPO / "DESIGN.md",
        REPO / "EXPERIMENTS.md",
        *(REPO / "docs").glob("*.md"),
    ]
    if p.exists()
)

#: Flags of *other* tools that the docs legitimately mention.
EXTERNAL_FLAGS = {
    "--benchmark-only",   # pytest-benchmark
    "--benchmark-json",   # pytest-benchmark
    "--cov",              # pytest-cov
    "--quick",            # benchmarks/run.py's own CLI
}

FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def walk_parsers(parser):
    """Yield every (sub)parser in the argparse tree, root included."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            seen = set()
            for sub in action.choices.values():
                if id(sub) not in seen:
                    seen.add(id(sub))
                    yield from walk_parsers(sub)


def cli_flags():
    """Every option string any repro subcommand accepts."""
    flags = set()
    for parser in walk_parsers(build_parser()):
        for action in parser._actions:
            flags.update(action.option_strings)
    return flags


def cli_subcommands():
    """Top-level subcommand names from the argparse tree."""
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return set(action.choices)
    raise AssertionError("repro parser has no subparsers")


def documented_flags(path):
    return set(FLAG_RE.findall(path.read_text()))


def test_doc_files_exist():
    names = {p.name for p in DOC_FILES}
    assert {"README.md", "DESIGN.md", "EXPERIMENTS.md",
            "architecture.md", "observability.md",
            "static-analysis.md", "pricing.md", "benchmarks.md"} <= names


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_every_documented_flag_exists(path):
    known = cli_flags() | EXTERNAL_FLAGS
    unknown = documented_flags(path) - known
    assert not unknown, (
        f"{path.name} documents flags the CLI does not have: "
        f"{sorted(unknown)}"
    )


def test_every_subcommand_documented_in_readme():
    readme = (REPO / "README.md").read_text()
    missing = {
        cmd for cmd in cli_subcommands()
        if not re.search(rf"\brepro {cmd}\b", readme)
    }
    assert not missing, f"README.md never shows: {sorted(missing)}"


def test_readme_documents_engine_flags():
    """The quickstart table must cover the engine's headline flags."""
    readme_flags = documented_flags(REPO / "README.md")
    assert {"--jobs", "--cache-dir", "--trace", "--metrics-out"} <= readme_flags


def test_readme_documents_backends_subcommand_and_riscv_cores():
    """The CLI table must cover the backend registry surface: the
    ``repro backends list|show`` inspection verbs and the fact that
    ``--arch``/``--archs`` accept the RV32 cores, not just Cortex-M."""
    readme = (REPO / "README.md").read_text()
    assert re.search(r"\brepro backends\b", readme)
    for verb in ("list", "show"):
        assert re.search(rf"\brepro backends\b.*`{verb}\b", readme), verb
    for core in ("rv32imc", "rv32imafc", "rv32ec"):
        assert core in readme, f"README never mentions --arch {core}"


def test_backends_subcommand_has_list_and_show():
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            backends = action.choices["backends"]
            for sub in backends._actions:
                if isinstance(sub, argparse._SubParsersAction):
                    assert {"list", "show"} <= set(sub.choices)
                    return
    raise AssertionError("repro backends has no list/show subcommands")


def test_benchmarks_doc_catalogs_every_bench_script():
    """docs/benchmarks.md must list every benchmarks/bench_*.py on disk
    and every BENCH_*.json baseline they seed."""
    doc = (REPO / "docs" / "benchmarks.md").read_text()
    scripts = sorted(p.name for p in (REPO / "benchmarks").glob("bench_*.py"))
    assert scripts, "no bench scripts found — wrong repo layout?"
    missing = [s for s in scripts if f"`{s}`" not in doc]
    assert not missing, (
        f"docs/benchmarks.md does not catalog: {missing}; every bench "
        "script must have a row in the catalog table"
    )
    baselines = {p.name for p in REPO.glob("BENCH_*.json")}
    baselines |= {p.name for p in (REPO / "benchmarks").glob("BENCH_*.json")}
    undocumented = {b for b in baselines if b not in doc}
    assert not undocumented, (
        f"docs/benchmarks.md never mentions: {sorted(undocumented)}"
    )


def test_pricing_doc_linked_and_names_both_paths():
    """docs/pricing.md must exist, be reachable from the README, and
    document the byte-identity contract plus both price paths."""
    readme = (REPO / "README.md").read_text()
    assert "docs/pricing.md" in readme
    assert "docs/benchmarks.md" in readme
    pricing = (REPO / "docs" / "pricing.md").read_text()
    for needle in ("byte-identical", "repro.vecprice", "vectorize",
                   "BENCH_vecprice.json"):
        assert needle in pricing, needle


def test_readme_documents_lint_flags():
    """The CLI table must cover the lint subcommand's full surface."""
    readme_flags = documented_flags(REPO / "README.md")
    assert {"--format", "--rules", "--baseline", "--update-baseline",
            "--root", "--list"} <= readme_flags


def test_lint_subcommand_exists_and_is_not_traceable():
    assert "lint" in cli_subcommands()
    assert "lint" not in TRACEABLE_COMMANDS


def test_trace_wraps_exactly_the_traceable_commands():
    parser = build_parser()
    trace = None
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            trace = action.choices["trace"]
    for action in trace._actions:
        if isinstance(action, argparse._SubParsersAction):
            assert set(action.choices) == set(TRACEABLE_COMMANDS)
            return
    raise AssertionError("repro trace has no nested subcommands")


def test_traceable_commands_accept_obs_flags():
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name in TRACEABLE_COMMANDS:
                flags = set()
                for sub_action in action.choices[name]._actions:
                    flags.update(sub_action.option_strings)
                assert {"--trace", "--metrics-out"} <= flags, name
