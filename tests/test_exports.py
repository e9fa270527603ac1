"""The package's advertised names and the README's API example stay real."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import apsel

README = Path(__file__).resolve().parents[1] / "README.md"


# importing __main__ would run the command line
MODULES = sorted(m.name for m in pkgutil.iter_modules(apsel.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"apsel.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_readme_api_example_runs():
    text = README.read_text()
    section = text[text.index("## Python API") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
