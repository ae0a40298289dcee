"""Static checks on the package surface: every public name has a caller in
the program or the benchmark, no module imports a name it never uses, and
every boundary the benchmark tracer wraps is still bound and called.

Parses the sources with ``ast``; nothing is imported or run.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kinproj"


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def public_definitions(tree):
    """Public top-level functions, classes and assigned names of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def references(tree):
    """Names a module reads: loaded names, attributes, imported names, and
    exact string constants (looked up with getattr, as the benchmark tracer
    does)."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_every_public_name_has_a_caller():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    callers = modules + sorted((ROOT / "perfbench").glob("*.py"))
    refs = set().union(*(references(parse(p)) for p in callers))
    unused = sorted(
        f"{p.stem}.{name}"
        for p in modules
        for name in public_definitions(parse(p))
        if name not in refs
    )
    assert unused == []


def imported_names(tree):
    """(bound name, line) for every name an import statement binds."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                out.append((bound, node.lineno))
    return out


def exported(tree):
    """Names listed in a module's ``__all__``: a re-export is a use."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(ast.literal_eval(node.value))
    return out


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = []
    for path in files:
        tree = parse(path)
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        loaded |= exported(tree)
        unused += [
            f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported_names(tree)
            if name not in loaded
        ]
    assert unused == []


def traced_boundaries():
    """The (module, name) pairs the benchmark tracer wraps by attribute."""
    tree = parse(ROOT / "perfbench" / "tracing.py")
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no BOUNDARIES")


def test_traced_boundaries_are_bound_and_called():
    # the tracer replaces a module attribute; a module that stops calling the
    # name (and so drops its import) breaks every traced run
    missing = []
    for module, name in traced_boundaries():
        tree = parse(PACKAGE / f"{module}.py")
        bound = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        bound |= {alias.asname or alias.name for n in tree.body
                  if isinstance(n, ast.ImportFrom) for alias in n.names}
        called = {n.func.id for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        if name not in bound or name not in called:
            missing.append(f"{module}.{name}")
    assert missing == []


def module_level_names(tree):
    """Names a module binds at top level: definitions, assignments, imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def test_benchmark_imports_resolve():
    # perfbench imports these names inside functions, so a rename would
    # otherwise fail only in the benchmark's checks, when the benchmark runs
    missing, seen = [], []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(parse(path)):
            if not (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "kinproj"):
                continue
            parts = node.module.split(".")[1:]
            if parts:
                names = module_level_names(parse(PACKAGE.joinpath(*parts).with_suffix(".py")))
            else:  # the package: its own names and its modules
                names = module_level_names(parse(PACKAGE / "__init__.py"))
                names |= {p.stem for p in PACKAGE.glob("*.py")}
            for alias in node.names:
                seen.append(alias.name)
                if alias.name not in names:
                    missing.append(f"{path.name}:{node.lineno} {node.module}.{alias.name}")
    assert seen and missing == []
