"""Module boundaries of the package: no module imports another module's
private (underscore) name; a helper two modules share is public."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bmcflow"


def test_no_module_imports_a_private_name():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}:{node.lineno} imports {alias.name} from .{node.module or ''}"
                              for alias in node.names if alias.name.startswith("_")]
    assert SRC.is_dir() and not offenders, offenders
