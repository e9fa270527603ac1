"""The package's advertised names and the README's API and config examples stay real."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import apsel
import apsel.cli
from apsel.cli import _build_parser, main, parse_algo_spec

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(apsel.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().with_name("test_acceptance.py")


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


def test_readme_config_example_runs(tmp_path):
    text = README.read_text()
    section = text[text.index("Config file example:") :]
    cfgfile = tmp_path / "nightly.cfg"
    cfgfile.write_text(re.search(r"```\n(.*?)```", section, re.S).group(1))
    out, trace = tmp_path / "out", str(tmp_path / "trace.csv")
    assert main(["gen-trace", "--gen-n", "20", "--gen-duration", "12", "--out", trace]) == 0
    assert main(["run", "--config", str(cfgfile), "--trace", trace, "--out", str(out)]) == 0
    [algos] = [line for line in cfgfile.read_text().splitlines() if line.startswith("algo")]
    specs = algos.partition("=")[2].replace(";", " ").split()
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(f"{parse_algo_spec(text).tag}.csv" for text in specs)


def test_docs_name_the_parsers_subcommands():
    # the cli docstring and the README once both named a deleted subcommand
    _, commands = _build_parser()
    documented = re.findall(r"^\* ``([\w-]+)``", apsel.cli.__doc__, re.M)
    text = README.read_text()
    block = re.search(r"```\n(.*?)```", text[text.index("## Command line") :], re.S).group(1)
    invoked = [line.split()[1] for line in block.splitlines() if line.startswith("apsel ")]
    assert sorted(documented) == sorted(set(invoked)) == sorted(commands)


def _exported_names() -> set[str]:
    """The names ``apsel/__init__.py`` imports from the package's modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    return {a.name for node in imports for a in node.names}


def _annotations(tree) -> list[ast.expr]:
    """The annotations in a module: a name that only a type hint names is not used."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            found.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            found.append(node.returns)
    return found


def _module_aliases(tree) -> set[str]:
    """The names a module binds to the package's own modules, such as ``from . import graph``."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "apsel"):
            if node.module in (None, "apsel"):
                aliases.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.asname and a.name.startswith("apsel."))
    return aliases


def _used_names() -> set[str]:
    """Every name the package's modules read outside annotations (an
    attribute only of one of its own modules), and every name the
    acceptance tests import from apsel."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        hints = {id(n) for a in _annotations(tree) for n in ast.walk(a)}
        aliases = _module_aliases(tree)
        for node in ast.walk(tree):
            if id(node) in hints:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                used.add(node.attr)
    for node in ast.walk(ast.parse(ACCEPTANCE.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "apsel":
            used.update(a.name for a in node.names)
    return used


def test_no_export_is_used_only_by_tests():
    # a definition is not a use: a name that only tests call belongs in tests/helpers.py
    assert sorted(_exported_names() - _used_names()) == []


def test_tuner_scores_graphs_it_is_given():
    # which instants a command reads is Trace.periods' rule alone, and cmd_tune
    # builds the graphs of those periods: the tuner reads no trace
    tree = ast.parse((PACKAGE / "tuner.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        if isinstance(node, ast.ImportFrom | ast.Import):
            imported.update(a.name for a in node.names)
    # .mobility, apsel.mobility, or mobility itself from the package
    assert [name for name in imported if name.split(".")[-1] == "mobility"] == []
    params = inspect.signature(apsel.tune_parameters).parameters
    assert [p for p in params if "time" in p or "radio" in p] == []
    assert list(params) == ["graphs", "config"]
