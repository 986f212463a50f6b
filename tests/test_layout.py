"""Module boundaries of the package: no module imports another module's
private (underscore) name; a helper two modules share is public; every
public name has a caller in the package or the benchmark; and every
cached per-degree constant is read-only."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from bmcflow import conformal, curvature, flow, spectral

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bmcflow"

# Public names kept without a caller in src/bmcflow or perfbench/, each with the reason.
UNCALLED_ALLOWED = {
    "conformal.bubble": "the map-generated reference that tests compare bubble_field's closed form against",
    "conformal.ConformalMap.width": "the concentration parameter acceptance check c10 reads off a recentering map",
    "curvature.lambda_prime": "the reference that test_row_matches_reference_functions compares _record's row against",
    "curvature.lp_residual": "the reference that test_row_matches_reference_functions compares _record's row against",
}


def _references(tree):
    """Every name a tree reads: bare and attribute names in Load context, and imported names.

    A binding (`x = ...`, `obj.x = ...`) or a `del` is no reference, and
    neither is a read of a name that the enclosing function binds or
    takes as a parameter: that name is a local there.
    """
    refs = Counter()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            local = {n.arg for n in ast.walk(node.args) if isinstance(n, ast.arg)}
            local |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rsplit(".", 1)[-1]] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, set())
    return refs


def _public_definitions(path, tree):
    """(qualified name, name, node) of the public module-level functions and classes and their public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name, item


def test_references_count_reads_not_bindings():
    """A function's own local of the same name is no caller; a read elsewhere is."""
    refs = _references(ast.parse(
        "from .curvature import flow_bounds\n"
        "def record(rep, volume):\n"
        "    lambda_prime = rep.lam\n"
        "    state.H = lp_residual\n"
        "    del rep\n"
        "    return lambda_prime + volume + rep.denom\n"
        "def reference(u):\n"
        "    return lambda_prime(u)\n"
    ))
    assert refs["lambda_prime"] == 1 and refs["lp_residual"] == 1 and refs["flow_bounds"] == 1
    assert refs["lam"] == 1 and refs["denom"] == 1
    assert refs["H"] == 0 and refs["volume"] == 0 and refs["rep"] == 0 and refs["state"] == 1


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


# Arguments for each lru_cache'd constant of the numerical modules; a new cache must be listed here.
CACHED_CONSTANTS = {
    "spectral._fourier_table": (8,),
    "curvature._energy_weights": (8,),
    "conformal._cap_multipliers": (8, conformal.CAP_RADII),
    "flow._value_and_dtn": (8,),
}


def test_cached_constants_read_only():
    """A cached constant is shared by every caller in the process, so a
    write into it would corrupt every later flow: each one is read-only."""
    found = {f"{mod.__name__.rsplit('.', 1)[-1]}.{name}": fn
             for mod in (spectral, conformal, curvature, flow)
             for name, fn in vars(mod).items() if hasattr(fn, "cache_info")}
    assert set(found) == set(CACHED_CONSTANTS)
    for name, args in CACHED_CONSTANTS.items():
        value = found[name](*args)
        assert value is found[name](*args), name
        assert isinstance(value, np.ndarray) and not value.flags.writeable, name
        with pytest.raises(ValueError):
            value[(0,) * value.ndim] = 1.0
