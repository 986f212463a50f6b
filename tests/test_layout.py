"""Module boundaries of the package: no module imports another module's
private (underscore) name; a helper two modules share is public; and
every public name has a caller in the package or the benchmark."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bmcflow"

# Public names kept without a caller in src/bmcflow or perfbench/, each with the reason.
UNCALLED_ALLOWED = {
    "conformal.bubble": "the map-generated reference that tests compare bubble_field's closed form against",
    "conformal.ConformalMap.width": "the concentration parameter acceptance check c10 reads off a recentering map",
}


def _references(tree):
    """Every name a tree uses: bare names, attribute names and imported names."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rsplit(".", 1)[-1]] += 1
    return refs


def _public_definitions(path, tree):
    """(qualified name, name, node) of the public module-level functions and classes and their public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name, item


def test_no_module_imports_a_private_name():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}:{node.lineno} imports {alias.name} from .{node.module or ''}"
                              for alias in node.names if alias.name.startswith("_")]
    assert SRC.is_dir() and not offenders, offenders


def test_every_public_name_has_a_caller():
    """A public function, class or method is referenced outside its own body, in
    src/bmcflow (the package root aside) or perfbench/; tests alone do not count."""
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in modules + sorted(ROOT.glob("perfbench/*.py"))}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    uncalled = [qualified for path in modules for qualified, name, node in _public_definitions(path, trees[path])
                if refs[name] <= _references(node)[name]]
    assert modules and set(uncalled) == set(UNCALLED_ALLOWED), sorted(set(uncalled) ^ set(UNCALLED_ALLOWED))
