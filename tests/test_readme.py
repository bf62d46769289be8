"""The README's python examples run as written, and every function the
package exports is one that the README or a demo calls."""

import inspect
import re
from pathlib import Path

import hmmrisk as hr

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_every_exported_function_appears_in_the_readme_or_a_demo():
    # classes are exported as the types that documented functions return or raise; helpers stay in their modules
    text = "\n".join(path.read_text() for path in [README, *sorted((ROOT / "demos").glob("*.py"))])
    exported = [
        name
        for name, value in vars(hr).items()
        if not name.startswith("_") and not inspect.isclass(value) and not inspect.ismodule(value)
    ]
    assert exported
    assert [name for name in exported if not re.search(rf"\b{name}\b", text)] == []
