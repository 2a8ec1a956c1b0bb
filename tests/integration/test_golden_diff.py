"""Golden regression fixtures for pairwise ``memgaze diff`` output.

``memgaze diff`` runs the ``windows`` pass through the engine over both
archives and renders through the N-way diff's table; these fixtures pin
its byte-for-byte output, so a change of path stays an internal change. They reuse the committed
golden archives from :mod:`tests.integration.test_golden_reports` (run
that module with ``--update-golden`` first if an archive is missing).

Intentional changes are re-frozen with::

    pytest tests/integration/test_golden_diff.py --update-golden

and reviewed like any other code change.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"

#: (before case, after case, extra CLI args, expectation stem) — the
#: default rendering plus one --top variant, to pin both arg paths. Both
#: fixtures fit inside their top-N budget on purpose: truncated output
#: carries an omitted-rows note, which is additive-only and covered by
#: tests/core/test_diff.py rather than frozen bytes.
VARIANTS = [
    ("strided-mix", "irregular", [], "strided-mix.irregular"),
    ("irregular", "sidless", ["--top", "2"], "irregular.sidless"),
]


@pytest.mark.parametrize(
    "before,after,extra,stem", VARIANTS, ids=[stem for _, _, _, stem in VARIANTS]
)
def test_golden_diff(before, after, extra, stem, capsys, request):
    update = request.config.getoption("--update-golden")
    expected_path = GOLDEN / f"{stem}.diff.txt"
    for case in (before, after):
        if not (GOLDEN / f"{case}.npz").exists():
            pytest.fail(
                f"golden archive {case}.npz is missing — regenerate with "
                "test_golden_reports.py --update-golden and commit it"
            )

    rc = cli_main(
        ["diff", str(GOLDEN / f"{before}.npz"), str(GOLDEN / f"{after}.npz"), *extra]
    )
    out = capsys.readouterr().out
    assert rc == 0

    if update:
        expected_path.write_text(out, encoding="utf-8")
        return
    if not expected_path.exists():
        pytest.fail(
            f"golden expectation {expected_path} is missing — freeze it with "
            "--update-golden and commit it"
        )
    assert out == expected_path.read_text(encoding="utf-8"), (
        f"diff output drifted from {expected_path.name}; pairwise diff must "
        "stay byte-identical to its pre-refactor output"
    )
