"""The README's python examples run as written, every function the
package exports is one that the README or a demo calls, every module
member the README names exists, and the README states the exit codes the
command line returns."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import hmmrisk as hr
import hmmrisk.cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = [importlib.import_module(f"hmmrisk.{info.name}") for info in pkgutil.iter_modules(hr.__path__)
           if not info.name.startswith("_")]


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


def test_readme_module_references_resolve():
    # `module.name` (or `hmmrisk.module.name`) for a module of the package
    modules = {module.__name__.rpartition(".")[2]: module for module in MODULES}
    cited = {
        (module, name)
        for module, name in re.findall(r"`(?:hmmrisk\.)?(\w+)\.(\w+)`", README.read_text())
        if module in modules
    }
    assert cited
    assert sorted(f"{module}.{name}" for module, name in cited if not hasattr(modules[module], name)) == []


def test_readme_private_names_resolve():
    private = set(re.findall(r"`(_\w+)", README.read_text()))
    assert private
    assert sorted(name for name in private if not any(hasattr(module, name) for module in MODULES)) == []


def test_exit_codes_are_documented_once_and_returned():
    def sentence(text):
        return " ".join(re.search(r"Exit codes:.*?\.(?=\s)", text, flags=re.S).group().split())

    documented = sentence(README.read_text())
    assert documented == sentence(hmmrisk.cli.__doc__)
    named = [int(code) for code in re.findall(r"(\d+) [a-z]", documented)]
    assert named == [0, 2, *range(3, 11)]  # 0 success and 2 usage come from argparse, the rest from _ERROR_CODES
    assert sorted(code for _, code in hmmrisk.cli._ERROR_CODES) == list(range(3, 11))
