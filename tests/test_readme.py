"""The README's library example runs and prints the values its comments
show, and its command table names the subcommands the CLI defines."""

import ast
from fractions import Fraction
from pathlib import Path

from dt4calc.cli import COMMANDS

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_values():
    block = library_block()
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for node in ast.parse(block).body:
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            if comment:
                assert value == eval(comment, namespace), ast.unparse(node)
                shown.append(value)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert shown == [Fraction(-5, 3), -6]


def test_readme_command_table_lists_every_subcommand_in_order():
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip() for line in section.splitlines()
            if line.startswith("| `")]
    assert rows == [f"`{name}`" for name in COMMANDS]
