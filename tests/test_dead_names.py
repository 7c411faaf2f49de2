"""Every module-level name the package defines or imports is read somewhere
in the package, so a refactor leaves no table or helper that nothing calls;
and the solver's searches share one frame loop.

A name counts as read where its own module loads it, where its module's
__all__ lists it, or where another module of the package imports it and
that import is read in turn.  Dunder names and __future__ imports are
left out: the interpreter reads them.
"""

import ast
from pathlib import Path

import bitsudoku

PACKAGE = Path(bitsudoku.__file__).parent


def _source(node, package):
    """The package module an ImportFrom node names, or None for any other."""
    if node.level:
        return node.module or "__init__" if node.level == 1 else None
    if node.module == package:
        return "__init__"
    head, _, tail = (node.module or "").partition(".")
    return tail if head == package and "." not in tail else None


def _bindings(tree, package):
    """Each module-level name the module binds -> the (module, name) it
    imports from the package, or None."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = None
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = None
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = None
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            source = _source(node, package)
            for alias in node.names:
                names[alias.asname or alias.name] = (
                    source and (source, alias.name))
    return {name: source for name, source in names.items()
            if not (name.startswith("__") and name.endswith("__"))}


def _reads(tree):
    """The names a module loads anywhere, and the strings of its __all__."""
    reads = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            reads.update(ast.literal_eval(node.value))
    return reads


def dead_names(sources, package="bitsudoku"):
    """The sorted "module.name" of every module-level name in `sources`
    (module name -> its text) that nothing in them reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    bound = {module: _bindings(tree, package)
             for module, tree in trees.items()}
    used = {(module, name) for module, tree in trees.items()
            for name in _reads(tree) & bound[module].keys()}
    while True:     # an import that is read reads the name it imports
        more = {source for module, names in bound.items()
                for name, source in names.items()
                if source and (module, name) in used} - used
        if not more:
            break
        used |= more
    return sorted(f"{module}.{name}" for module, names in bound.items()
                  for name in names if (module, name) not in used)


def test_every_module_level_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert sources.keys() >= {"__init__", "grid", "solver"}
    assert dead_names(sources) == []


def test_dead_names_finds_what_nothing_reads():
    sources = {
        "__init__": "from .a import kept, exported\n"
                    "__all__ = ['exported']\n",
        "a": "from __future__ import annotations\n"
             "import os\n"
             "from .b import helper, unused_import\n"
             "TABLE = {}\n"
             "def kept():\n"
             "    return helper()\n"
             "def exported():\n"
             "    return kept\n"
             "def orphan():\n"
             "    return TABLE\n",
        "b": "def helper():\n"
             "    pass\n"
             "def unused_import():\n"
             "    pass\n",
    }
    # kept is read in a, exported through __all__, helper through a; TABLE
    # is read only by orphan, which counts, though nothing calls orphan.
    assert dead_names(sources) == ["__init__.kept", "a.orphan", "a.os",
                                   "a.unused_import", "b.unused_import"]


def test_one_function_pops_the_frame_stack():
    # solve and count_solutions run one loop, so budgets and counters
    # added to the search are written once.
    tree = ast.parse((PACKAGE / "solver.py").read_text(encoding="utf-8"))
    popping = [function.name for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef)
               and any(isinstance(node, ast.Call)
                       and isinstance(node.func, ast.Attribute)
                       and node.func.attr == "pop"
                       and isinstance(node.func.value, ast.Name)
                       and node.func.value.id == "stack"
                       for node in ast.walk(function))]
    assert popping == ["_search"]
