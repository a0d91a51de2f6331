"""Byte-for-byte snapshot of the CLI's reports on the built-in corpus.

``golden/analyze/<name>.json`` holds the output of
``scx analyze <name>.scx --json`` for every pure catalog entry, and
``golden/verify-corpus.json`` holds the output of
``scx verify --corpus --json``.  Regenerate them only when an output is
meant to change, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from scx.cli import main
from scx.complexes import dump
from scx.generators import catalog, display_name

GOLDEN = Path(__file__).parent / "golden"


def _run_cli(argv) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return out.getvalue(), code


def analyze_outputs(workdir) -> dict[str, str]:
    """CLI reports of the pure catalog entries, each read back from a file."""
    outputs = {}
    home = os.getcwd()
    os.chdir(workdir)  # contextlib.chdir needs Python 3.11
    try:
        for spec, c in catalog():
            if not c.is_pure:
                continue
            name = display_name(spec)
            dump(c, f"{name}.scx")
            text, code = _run_cli(["analyze", f"{name}.scx", "--json"])
            assert code == 0, name
            outputs[name] = text
    finally:
        os.chdir(home)
    return outputs


def verify_output() -> str:
    text, code = _run_cli(["verify", "--corpus", "--json"])
    assert code in (0, 1)
    return text


def test_analyze_reports_match_snapshot(tmp_path):
    outputs = analyze_outputs(tmp_path)
    stored = {p.stem: p.read_text() for p in (GOLDEN / "analyze").glob("*.json")}
    assert sorted(outputs) == sorted(stored)
    for name, text in outputs.items():
        assert text == stored[name], name


def test_verify_corpus_rows_match_snapshot():
    assert verify_output() == (GOLDEN / "verify-corpus.json").read_text()


if __name__ == "__main__":
    (GOLDEN / "analyze").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in analyze_outputs(tmp).items():
            (GOLDEN / "analyze" / f"{name}.json").write_text(text)
    (GOLDEN / "verify-corpus.json").write_text(verify_output())
