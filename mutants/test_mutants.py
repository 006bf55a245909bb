"""The mutation gate: every entry of ``table.MUTANTS`` is killed by its tests.

Run it beside the benchmark tests, outside tier-1:

    python -m pytest mutants

For each entry the repository is copied to a temporary directory, the
entry's text is replaced once in ``src/wittram/<file>`` and the named tests
run there in a fresh interpreter (exit 1: killed, 0: survived), two
entries at a time.  An entry whose text does not occur exactly once is
refused, so a stale entry fails instead of testing nothing; any other exit
status (a collection error, a node id that names no test) fails too.  The
named tests must also pass on an unmutated copy, or a kill would prove
nothing.  Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from table import DIGEST_TESTS, MUTANTS

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".wittbench", "mutants")
TIMEOUT_S = 300
UNMUTATED = {"id": "unmutated", "tests": sorted({t for m in MUTANTS for t in m["tests"]})}


def _mutate(src: Path, entry: dict) -> str:
    """Apply ``entry`` to the copy ``src``; the refusal, or '' when applied."""
    path = src / "wittram" / entry["file"]
    text = path.read_text(encoding="utf-8")
    count = text.count(entry["text"])
    if count != 1:
        return f"stale entry: its text occurs {count} times in {entry['file']}"
    path.write_text(text.replace(entry["text"], entry["replacement"]), encoding="utf-8")
    return ""


def _run(entry: dict) -> tuple:
    """(exit status, output) of the entry's tests on a mutated copy; the
    status is None when the entry was refused."""
    with tempfile.TemporaryDirectory(prefix="wittram-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        if "text" in entry:
            refusal = _mutate(copy / "src", entry)
            if refusal:
                return None, refusal
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                *entry["tests"]]
        for test in DIGEST_TESTS:
            argv += ["--deselect", test]
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        return done.returncode, done.stdout[-3000:] + done.stderr[-3000:]


@pytest.fixture(scope="module")
def outcomes(request):
    """The outcome of every entry this session selected, two at a time."""
    selected = {item.callspec.params["entry"]["id"]: item.callspec.params["entry"]
                for item in request.session.items
                if hasattr(item, "callspec") and "entry" in item.callspec.params}
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {name: pool.submit(_run, entry) for name, entry in selected.items()}
        return {name: future.result() for name, future in futures.items()}


def test_entries_have_unique_ids_and_name_tests():
    ids = [m["id"] for m in MUTANTS]
    assert len(ids) == len(set(ids))
    assert all(m["tests"] and m["text"] != m["replacement"] for m in MUTANTS)
    assert sum(bool(m.get("survives")) for m in MUTANTS) == 1


@pytest.mark.parametrize("entry", [UNMUTATED] + list(MUTANTS), ids=lambda e: e["id"])
def test_entry(entry, outcomes):
    status, output = outcomes[entry["id"]]
    assert status is not None, output
    expected = 0 if entry is UNMUTATED or entry.get("survives") else 1
    assert status == expected, output
