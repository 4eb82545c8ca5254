"""README's "Library use" example runs against the package as it is."""

import contextlib
import io
import re
from pathlib import Path

from .conftest import make_synthetic

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = "/tmp/demo"


def library_use_block() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(tmp_path):
    data = tmp_path / "demo"
    make_synthetic([
        "--out", str(data), "--nodes", "200", "--classes", "3", "--features", "24",
        "--standard-split", "--val", "60", "--test", "60",
    ])
    code = library_use_block()
    # The example reads the dataset the Quick start writes.
    assert code.count(f'"{DEMO_DIR}"') == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code.replace(DEMO_DIR, str(data)), "README.md", "exec"), {})
    printed = out.getvalue().split()
    assert printed and 0.0 <= float(printed[-1]) <= 1.0
