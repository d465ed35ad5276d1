"""The README's quick example runs as written."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_example_runs_as_written():
    # `python -m doctest README.md` would read the closing fence as part of
    # the last expected output, so only the fenced block is run
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    example = doctest.DocTestParser().get_doctest(blocks[0], {}, "README quick example", str(README), 0)
    report = []
    result = doctest.DocTestRunner().run(example, out=report.append)
    assert result.attempted == 3 and result.failed == 0, "".join(report)
