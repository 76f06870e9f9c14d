"""The README's Library example runs as documented."""

import contextlib
import io

from conftest import ROOT


def _library_block():
    """The first ``python`` block under the README's ``## Library`` heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_prints_its_documented_output(monkeypatch):
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_block(), "README.md", "exec"), {})
    assert out.getvalue() == "1 ('0', 0) 0.5\n1 ('1', 0) 0.5\nunhalted 0.0\n"
