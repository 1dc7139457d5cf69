"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs(capsys):
    exec(compile(_library_block(), str(README), "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out
    assert "nan]" in out  # evaluate_many outside the domain
    assert "p_uniform" in out
