"""Module boundaries of the package: no module imports another module's
private (underscore) name; a helper two modules share is public; every
public name has a caller in the package or the benchmark; every private
name is read in the package; every parameter default is passed by some
caller; and every cached per-degree constant is read-only."""

import ast
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from bmcflow import conformal, curvature, flow, spectral

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bmcflow"

# Public names kept without a caller in src/bmcflow or perfbench/, each with the reason.
UNCALLED_ALLOWED = {
    "conformal.ConformalMap.inverse": "the inverse map that tests compose with boundary_action to check "
                                      "inversion and the change of variables of normalize's Jacobian",
    "curvature.energy_functional": "the reference that test_evaluate_matches_one_quantity_functions compares "
                                   "_evaluate's energy report against",
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


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(path, tree):
    """(qualified name, name, node) of the private module-level functions, classes and constants, and of the
    private methods of the module-level classes; a dunder is not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _is_private(node.name):
            yield f"{path.stem}.{node.name}", node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and _is_private(name.id):
                        yield f"{path.stem}.{name.id}", name.id, node
        for item in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(item, ast.FunctionDef) and _is_private(item.name):
                yield f"{path.stem}.{node.name}.{item.name}", item.name, item


def test_every_private_name_is_read():
    """A private function, class, constant or method is read in src/bmcflow
    outside its own definition: one that nothing reads, such as the limit
    of a deleted check, is dead code."""
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    unread = [qualified for path, tree in trees.items() for qualified, name, node in _private_definitions(path, tree)
              if refs[name] <= _references(node)[name]]
    assert trees and not unread, unread


def test_private_definitions_find_constants_and_methods():
    """The scan lists private constants (also in a tuple target), functions,
    classes and methods, and passes over dunders and public names."""
    tree = ast.parse(
        "_LIMIT = 6\n"
        "_A, B = 1, 2\n"
        "__version__ = '0'\n"
        "def _helper():\n"
        "    pass\n"
        "class _Term:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "    def _derivative(self):\n"
        "        pass\n"
        "    def value(self):\n"
        "        pass\n"
    )
    names = [qualified for qualified, _, _ in _private_definitions(Path("mod.py"), tree)]
    assert names == ["mod._LIMIT", "mod._A", "mod._helper", "mod._Term", "mod._Term._derivative"]


def _defaulted_parameters(module, tree):
    """(qualified parameter name, callee name, position, parameter name) of every parameter with a default.

    Functions and methods at any depth count.  The callee is the name a
    call uses, the class name for __init__.  position is the index among
    the positional arguments of a call, self or cls left out; it is None
    for a keyword-only parameter.
    """
    def visit(node, prefix, in_class):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                yield from visit(item, f"{prefix}{item.name}.", True)
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callee = prefix.rstrip(".").rsplit(".", 1)[-1] if item.name == "__init__" else item.name
                args = item.args
                positional = args.posonlyargs + args.args
                bound = in_class and not any(ast.unparse(d) == "staticmethod" for d in item.decorator_list)
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    yield f"{prefix}{item.name}.{arg.arg}", callee, i - bound, arg.arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{prefix}{item.name}.{arg.arg}", callee, None, arg.arg
                yield from visit(item, f"{prefix}{item.name}.", False)

    yield from visit(tree, f"{module}.", False)


def _unpassed_defaults(defining, calling, exempt=()):
    """Qualified names of the defaulted parameters in the (module, tree) pairs of defining that no call in
    the calling trees passes, by keyword or by position.  A call matches by the bare or attribute name of
    its callee; one with *args passes every position and one with **kwargs every keyword.  The parameters
    of a function or class whose qualified name is in exempt are not listed."""
    most_args, keywords = Counter(), {}
    for tree in calling:
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            most_args[name] = max(most_args[name], math.inf if starred else len(call.args))
            keywords.setdefault(name, set()).update(k.arg for k in call.keywords)    # None for **kwargs
    return [qualified for module, tree in defining
            for qualified, callee, position, name in _defaulted_parameters(module, tree)
            if qualified.rsplit(".", 1)[0] not in exempt
            and not (position is not None and most_args[callee] > position)
            and not keywords.get(callee, set()) & {name, None}]


def test_unpassed_defaults_scan():
    """Keyword, positional, *args and **kwargs calls pass a default; a method's
    position leaves self out, a static method's does not; a constructor is
    called by its class name."""
    source = ast.parse(
        "def solve(u, tol=1e-8, max_iter=100, *, verbose=False):\n"
        "    def inner(x, scale=2.0):\n"
        "        return x\n"
        "    return inner(u)\n"
        "class Term:\n"
        "    def __init__(self, coef, power=1):\n"
        "        pass\n"
        "    def value(self, x, cached=True):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def parse(text, strict=True):\n"
        "        pass\n"
        "class Config:\n"
        "    def __init__(self, dt=0.1, every=1):\n"
        "        pass\n"
        "def unused(a, b=1):\n"
        "    pass\n"
        "def spread(a, b=1):\n"
        "    pass\n"
    )
    calls = ast.parse("solve(u, 1e-6, verbose=True)\nTerm(1.0, 2).value(x, False)\nTerm.parse(s)\n"
                      "Config(**fields)\nspread(*args)\n")
    assert _unpassed_defaults([("mod", source)], [source, calls], exempt={"mod.unused"}) == [
        "mod.solve.max_iter", "mod.solve.inner.scale", "mod.Term.parse.strict"]
    assert "mod.unused.b" in _unpassed_defaults([("mod", source)], [source, calls])


def test_every_default_is_passed():
    """Each parameter with a default, of any function, method or constructor in
    src/bmcflow, is passed by some call in src/bmcflow or perfbench/: a default
    that every caller takes is a constant, not a parameter.  The functions of
    UNCALLED_ALLOWED, which only tests call, are exempt."""
    modules = sorted(SRC.glob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in modules + sorted(ROOT.glob("perfbench/*.py"))}
    defining = [(p.stem, trees[p]) for p in modules]
    unpassed = _unpassed_defaults(defining, trees.values(), exempt=set(UNCALLED_ALLOWED))
    assert modules and not unpassed, unpassed


# Arguments for each lru_cache'd constant of the numerical modules; a new cache must be listed here.
CACHED_CONSTANTS = {
    "spectral._fourier_table": (8,),
    "curvature.energy_weights": (8,),
    "conformal._cap_multipliers": (8, conformal.CAP_RADII),
    "flow._value_and_dtn": (8,),
}


def test_cached_constants_read_only():
    """A cached constant is shared by every caller in the process, so a
    write into it would corrupt every later flow: each one is read-only.
    It is listed under the module that defines it, not one that imports it."""
    found = {f"{mod.__name__.rsplit('.', 1)[-1]}.{name}": fn
             for mod in (spectral, conformal, curvature, flow)
             for name, fn in vars(mod).items() if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__}
    assert set(found) == set(CACHED_CONSTANTS)
    for name, args in CACHED_CONSTANTS.items():
        value = found[name](*args)
        assert value is found[name](*args), name
        assert isinstance(value, np.ndarray) and not value.flags.writeable, name
        with pytest.raises(ValueError):
            value[(0,) * value.ndim] = 1.0
