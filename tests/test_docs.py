"""Tier-1 guard for the docs site.

Runs the same checker as the CI docs job (``tools/check_docs.py``): every
internal link in ``README.md``/``docs/*.md`` and every cited ``repro.…``
symbol must resolve, and every fenced ``>>>`` example in ``docs/*.md`` must
pass under doctest.  Keeping this in the tier-1 suite means a stale example,
a stale reference or a broken cross-link fails locally before it fails in
CI.
"""

import os
import subprocess
import sys
from pathlib import Path

import tools.check_docs as check_docs

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_checker():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
        cwd=str(REPO_ROOT),
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_docs_site_exists():
    for page in ("architecture.md", "recovery.md", "experiments.md"):
        assert (REPO_ROOT / "docs" / page).is_file(), f"docs/{page} is missing"


def test_docs_links_and_doctests_are_clean():
    completed = run_checker()
    assert completed.returncode == 0, (
        f"docs checker failed:\n{completed.stdout}\n{completed.stderr}"
    )
    assert "docs OK" in completed.stdout


def test_a_cited_symbol_that_was_deleted_fails_the_reference_pass():
    page = (
        "Before-images live in :class:`~repro.database.recovery.UndoLog`; "
        "redo lives in ``repro.database.recovery.RedoLog`` and "
        "`repro.database.recovery`."
    )
    assert check_docs.check_references([("docs/page.md", page)]) == [
        "docs/page.md: unresolved reference -> repro.database.recovery.UndoLog"
    ]


def test_a_reference_resolves_below_its_longest_importable_module():
    assert check_docs.resolves("repro.core.replica.ReplicaManager.catch_up_from")
    assert not check_docs.resolves("repro.broadcast.consensus.Consensus.propose")


def test_a_cited_test_node_id_resolves_by_its_definitions():
    assert check_docs.check_test_references(
        [("docs/analysis.md", "`tests/test_analysis_lint.py::TestRepoIsClean`")]
    ) == []


def test_a_stale_test_node_id_or_file_fails_the_test_reference_pass():
    page = (
        "Checked by `tests/test_analysis_lint.py::TestRepoIsClean::test_gone`, "
        "`benchmarks/test_bench_gone.py` and `tests/test_docs.py`."
    )
    assert check_docs.check_test_references([("docs/page.md", page)]) == [
        "docs/page.md: unresolved test id -> "
        "tests/test_analysis_lint.py::TestRepoIsClean::test_gone",
        "docs/page.md: missing test file -> benchmarks/test_bench_gone.py",
    ]
