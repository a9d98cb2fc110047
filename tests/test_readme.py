"""The README's code examples run against the installed package."""

import argparse
import re
from pathlib import Path

from convquant.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(section: str) -> str:
    """The first ```python block under the README heading ``## <section>``."""
    text = README.read_text("utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", body, re.S)
    assert match, f"no python block under '## {section}'"
    return match.group(1)


def test_python_api_example_runs(capsys):
    exec(compile(python_block("Python API"), "README.md", "exec"), {})
    scheme, mse, ratio = capsys.readouterr().out.split()
    assert scheme in ("filter-wise", "f-shape-wise", "c-shape-wise")
    assert 0 < float(mse) and 1 < float(ratio) < 4


def cli_options() -> set[str]:
    """Every option string of ``convquant`` and of its subcommands."""
    parser = build_parser()
    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.values()
    return {opt for p in parsers for action in p._actions for opt in action.option_strings}


def test_readme_names_only_real_options():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*[a-z]", README.read_text("utf-8")))
    assert named and named <= cli_options(), sorted(named - cli_options())
