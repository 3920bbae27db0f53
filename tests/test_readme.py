"""The README's library example runs against the package as documented."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block under the README's "## Library example" heading."""
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_and_prints_a_finite_error():
    source = library_example()
    assert source.count("epochs=50") == 1
    # One epoch, not fifty: the test checks the API, not the trained accuracy.
    source = source.replace("epochs=50", "epochs=1")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(source, str(README), "exec"), {})
    assert math.isfinite(float(printed.getvalue()))
