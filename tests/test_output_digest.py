"""Byte stability: every op of ``scripts/output_digest.py`` against its
committed digest in ``output_digests.txt``.

The ops are the script's own list, so the two cannot drift apart.  A change
that means to alter output bytes regenerates the file with the script and
names every changed label and its reason.  Float roots and numeric
eigenvectors come from pure-Python float arithmetic in a fixed operation
order, so they are the same on every IEEE host.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("output_digests.txt")


def _script(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "scripts" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _by_label(lines):
    """Label -> line, for lines ``sha256  exit=<code>  <label>``."""
    return {line.split("  ", 2)[2]: line for line in lines}


def test_every_digest_equals_the_committed_one(monkeypatch):
    script = _script(monkeypatch)
    expected = _by_label(DIGESTS.read_text().splitlines())
    actual = _by_label(script.digest_line(label, op) for label, op in script.labelled_ops())
    changed = [label for label in expected if label in actual and actual[label] != expected[label]]
    missing = [label for label in expected if label not in actual]
    added = [label for label in actual if label not in expected]
    assert not (changed or missing or added), (
        f"changed: {changed}\nno longer run: {missing}\nnot committed: {added}"
    )
    assert list(actual) == list(expected)
