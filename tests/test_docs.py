"""Documentation cross-reference checks.

Docstrings and documents in this repository cite each other by file name
(``see DESIGN.md``, ``see EXPERIMENTS.md`` ...).  PR 3 found two of those
citations dangling (DESIGN.md did not exist); this test makes dangling doc
references a CI failure instead of a reader surprise.  The documents also
name CLI commands, which must exist too.
"""

import argparse
import re
from pathlib import Path

import repro.cli

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Top-level documents expected to exist by name.
REQUIRED_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
                 "PAPER.md", "CHANGES.md")

#: Citations of upper-case document names (the convention used throughout
#: the repo's docstrings and documents).
_DOC_REF = re.compile(r"\b([A-Z][A-Z0-9_]*\.md)\b")

#: Files whose citations are not promises about *this* repo: the issue text
#: is transient, SNIPPETS.md quotes external repositories verbatim, and
#: this test names hypothetical documents in its own docstrings.
_EXCLUDED = {"ISSUE.md", "SNIPPETS.md", "test_docs.py"}


def _referenced_docs():
    """Yield (source file, cited document name) for every citation found in
    the Python sources and the top-level documents."""
    sources = list((REPO_ROOT / "src").rglob("*.py"))
    sources += list((REPO_ROOT / "benchmarks").glob("*.py"))
    sources += list((REPO_ROOT / "tests").glob("*.py"))
    sources += list((REPO_ROOT / "examples").glob("*.py"))
    sources += list(REPO_ROOT.glob("*.md"))
    for path in sources:
        if path.name in _EXCLUDED:
            continue
        text = path.read_text(encoding="utf-8")
        for match in _DOC_REF.finditer(text):
            yield path, match.group(1)


#: Documents whose command lines must parse, besides every Python source
#: under :data:`_CLI_SOURCE_DIRS` (docstrings, comments, messages).
_CLI_DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md")
_CLI_SOURCE_DIRS = ("src", "examples", "benchmarks")

#: ``python -m repro <command> [<sub-command>]`` or a backticked
#: ``repro <command> [<sub-command>]`` (a reflowed span may break a line).
_CLI_USE = re.compile(r"(?:python -m repro|`repro)\s+([^\s`]+)(?:\s+([^\s`]+))?")

#: A sub-command word, or several joined by ``/`` (``cache stats/gc``);
#: anything else after the command (``...``, ``--help``) is not one.
_SUBCOMMAND = re.compile(r"[a-z][a-z0-9-]*(?:/[a-z][a-z0-9-]*)*")


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    """Sub-command name -> sub-parser of ``parser`` (empty if it has none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _invalid_cli_uses(text: str, commands: dict):
    """Yield each command line in ``text`` naming a command or sub-command
    that ``commands`` (the parser's top level) does not accept."""
    for match in _CLI_USE.finditer(text):
        command, sub = match.groups()
        if command.startswith("-"):     # python -m repro --help
            continue
        use = " ".join(match.group(0).split())
        if command not in commands:
            yield use
            continue
        choices = _subcommands(commands[command])
        if choices and sub and _SUBCOMMAND.fullmatch(sub):
            if any(part not in choices for part in sub.split("/")):
                yield use


def test_required_documents_exist():
    missing = [name for name in REQUIRED_DOCS
               if not (REPO_ROOT / name).is_file()]
    assert not missing, f"missing top-level documents: {missing}"


def test_no_dangling_doc_cross_references():
    dangling = sorted({
        f"{path.relative_to(REPO_ROOT)} cites missing {name}"
        for path, name in _referenced_docs()
        if not (REPO_ROOT / name).is_file()
    })
    assert not dangling, "\n".join(dangling)


def test_docs_name_only_existing_cli_commands():
    """A command or sub-command removed from the CLI must not live on in
    the documents, in the CLI's own usage examples or in any docstring,
    comment or message of the Python sources."""
    commands = _subcommands(repro.cli.build_parser())
    assert list(_invalid_cli_uses("`repro bogus --check`", commands))
    assert list(_invalid_cli_uses("python -m repro fuzz bogus", commands))
    sources = {name: (REPO_ROOT / name).read_text(encoding="utf-8")
               for name in _CLI_DOCS}
    for directory in _CLI_SOURCE_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            name = str(path.relative_to(REPO_ROOT))
            sources[name] = path.read_text(encoding="utf-8")
    for name in _CLI_DOCS + ("src/repro/cli.py",):
        assert _CLI_USE.search(sources[name]), f"{name} names no CLI command"
    invalid = [f"{name}: {use!r}" for name, text in sources.items()
               for use in _invalid_cli_uses(text, commands)]
    assert not invalid, "\n".join(invalid)


def test_design_md_covers_its_citations():
    """The docstrings that cite DESIGN.md do so for two specific arguments;
    the document must actually contain them."""
    text = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8").lower()
    assert "substitution" in text      # benchmark stand-in rationale
    assert "in-order" in text          # core-model timing argument


def test_readme_quickstart_mentions_the_cli_surface():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for needle in ("repro list", "repro sweep", "repro shard",
                   "repro fuzz", "pytest", "EXPERIMENTS.md", "DESIGN.md"):
        assert needle in text, f"README.md must mention {needle!r}"


def test_experiments_md_covers_the_fuzzing_guide():
    """The fuzz module docstring and README point at the EXPERIMENTS.md
    fuzzing guide; the document must actually contain it."""
    text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert "Fuzzing TSO conformance" in text
    for needle in ("repro sweep fuzz-smoke", "repro shard merge fuzz-smoke",
                   "repro fuzz shrink", "tso-conformance"):
        assert needle in text, f"EXPERIMENTS.md must mention {needle!r}"
