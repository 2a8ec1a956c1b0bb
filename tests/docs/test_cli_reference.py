"""Drift test: ``docs/cli.md`` must equal the rendered parser.

The CLI reference is generated from :func:`repro.cli.build_parser` by
``repro._util.clidoc``. Adding, removing, or re-documenting any
``memgaze`` flag without regenerating the file fails here, with the
regeneration command in the assertion message — the reference cannot go
stale silently.
"""

from __future__ import annotations

from pathlib import Path

from repro._util.clidoc import render_cli_markdown

REPO_ROOT = Path(__file__).resolve().parents[2]
CLI_DOC = REPO_ROOT / "docs" / "cli.md"

REGEN = "PYTHONPATH=src python -m repro._util.clidoc > docs/cli.md"


def test_cli_reference_is_current():
    assert CLI_DOC.exists(), f"docs/cli.md is missing — generate it with: {REGEN}"
    committed = CLI_DOC.read_text(encoding="utf-8")
    rendered = render_cli_markdown()
    assert committed == rendered, (
        "docs/cli.md is stale (the parser in src/repro/cli.py changed); "
        f"regenerate it with: {REGEN}"
    )


def test_reference_covers_every_subcommand():
    """Every verb the parser knows appears as a section heading."""
    import argparse

    from repro.cli import build_parser

    text = CLI_DOC.read_text(encoding="utf-8")
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for choice in action._choices_actions:
                assert f"## `memgaze {choice.dest}`" in text


def test_reference_documents_new_toggles():
    """The engine toggles are in the reference; the removed switches
    (shm handoff, reference kernels) are not."""
    text = CLI_DOC.read_text(encoding="utf-8")
    assert "--workers" in text and "--chunk-size" in text
    for gone in ("--shm", "--no-shm", "--reuse-kernel", "--cache-kernel"):
        assert gone not in text
