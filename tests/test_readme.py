"""The README's "Library use" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == code.count("print(")
