"""The README's library example runs as written."""

import re
from pathlib import Path

from painfusion.evaluate import MATRIX_ARMS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs(capsys):
    """The first python block under "Library use" runs and prints one line
    per matrix arm: its name, its weights and its positive-class F1."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [arm[0] for arm in MATRIX_ARMS]
    assert all(0.0 <= float(line.split()[-1]) <= 1.0 for line in lines)
