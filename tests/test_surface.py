"""Every function and method in the package is reached from the package
itself, and every defaulted parameter is passed by some call.

A name that `src/copycart` defines but never loads is code only tests call;
its scalar or test-only form belongs in the tests.  The check is by name: a
function counts as used when its name is loaded as a variable or an
attribute anywhere, a method only when an attribute of its name is loaded,
so a local variable of the same name does not hide an unused method.

A defaulted parameter that no call passes is a constant; it belongs beside
the code that reads it as a named module constant.

A parameter that its own function never reads is one that callers pass for
nothing; the name checks above cannot see it, since some call passes it.
"""

import ast
import pathlib

import copycart

PACKAGE = pathlib.Path(copycart.__file__).parent
TESTS = pathlib.Path(__file__).parent

ALLOWED = {
    # a paper table that no stage reports yet; ROADMAP item 1 keeps it open
    "co_purchase_matrix",
}


def _is_cli_command(fn) -> bool:
    """`@main.command(...)` registers the function with click."""
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "command"
            and isinstance(target.value, ast.Name)
            and target.value.id == "main"
        ):
            return True
    return False


def test_every_function_is_loaded_somewhere_in_src():
    functions: dict[str, str] = {}
    methods: dict[str, str] = {}
    names: set[str] = set()
    attributes: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        method_nodes = {
            id(item)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and not _is_cli_command(node):
                    kind = methods if id(node) in method_nodes else functions
                    kind.setdefault(node.name, f"{path.relative_to(PACKAGE)}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    loaded = names | attributes
    unused = sorted(
        [f"{where} {name}" for name, where in functions.items() if name not in loaded | ALLOWED]
        + [f"{where} {name}" for name, where in methods.items() if name not in attributes | ALLOWED]
    )
    assert not unused, "defined in src/copycart but never loaded there:\n" + "\n".join(unused)
    stale = sorted(ALLOWED & loaded)
    assert not stale, f"allowlisted names are now used and can leave ALLOWED: {stale}"


def _passed_arguments() -> dict[str, set]:
    """Callee name -> the keywords and positional indices some call passes.

    A call is matched to its callee by name: `f(...)` and `x.f(...)` both
    count for every function or method called `f`, and `C(...)` for `C`'s
    constructor.  `*args` passes every position from its own on (kept as
    the pair ("*", index)), `**kwargs` every keyword (kept as "**").
    """
    passed: dict[str, set] = {}
    for path in sorted(PACKAGE.rglob("*.py")) + sorted(TESTS.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            args = passed.setdefault(name, set())
            for i, arg in enumerate(call.args):
                args.add(("*", i) if isinstance(arg, ast.Starred) else i)
            args.update(kw.arg or "**" for kw in call.keywords)
    return passed


def test_every_defaulted_parameter_is_passed_somewhere():
    passed = _passed_arguments()
    never = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = {
            id(item): cls.name
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(fn))
            callee = cls if fn.name == "__init__" and cls else fn.name
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
            )
            # a method's own first parameter is never among a call's arguments
            skip = 1 if cls and not static else 0
            positional = fn.args.posonlyargs + fn.args.args
            defaulted = [
                (arg.arg, positional.index(arg) - skip)
                for arg in positional[len(positional) - len(fn.args.defaults):]
            ] + [
                (arg.arg, None)
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None
            ]
            args = passed.get(callee, set())
            for name, index in defaulted:
                by_position = index is not None and (
                    index in args or any(a == ("*", i) for a in args for i in range(index + 1))
                )
                if name not in args and "**" not in args and not by_position:
                    never.append(f"{path.relative_to(PACKAGE)}:{fn.lineno} {callee}({name})")
    assert not never, "defaulted parameters that no call passes:\n" + "\n".join(never)


def test_every_parameter_is_read_in_its_function():
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [
                a.arg
                for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                if a is not None and a.arg not in ("self", "cls")
            ]
            loaded = {
                node.id
                for stmt in fn.body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            unread += [
                f"{path.relative_to(PACKAGE)}:{fn.lineno} {fn.name}({name})"
                for name in params
                if name not in loaded
            ]
    assert not unread, "parameters that their function never reads:\n" + "\n".join(unread)


def test_every_import_is_read():
    unread = []
    for path in sorted(PACKAGE.rglob("*.py")) + sorted(TESTS.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported: dict[str, int] = {}
        exported: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # `import a.b` binds `a`
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [
            f"{path.relative_to(PACKAGE.parent.parent)}:{line} {name}"
            for name, line in imported.items()
            if name not in loaded | exported
        ]
    assert not unread, "imported names that their module never reads:\n" + "\n".join(unread)
