"""The README's Library example.

Core claims:
    - the fenced Python block under "## Library" runs as written, and
      each line marked ``# -> text`` prints exactly that text, in order;
      every print in the block is marked
"""

import contextlib
import io
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_example():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library\n") :]
    start = section.index("```python\n") + len("```python\n")
    return section[start : section.index("```\n", start)]


def test_library_example_prints_its_commented_outputs():
    code = _library_example()
    marked = [line for line in code.splitlines() if "# -> " in line]
    assert [line for line in code.splitlines() if "print(" in line] == marked
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    expected = [line.split("# -> ", 1)[1] for line in marked]
    assert out.getvalue().splitlines() == expected
