"""Every function and method in the package is reached from the package itself.

A name that `src/copycart` defines but never loads is code only tests call;
its scalar or test-only form belongs in the tests.  The check is by name: a
function counts as used when its name is loaded as a variable or an
attribute anywhere, a method only when an attribute of its name is loaded,
so a local variable of the same name does not hide an unused method.
"""

import ast
import pathlib

import copycart

PACKAGE = pathlib.Path(copycart.__file__).parent

ALLOWED = {
    # a paper table that no stage reports yet; ROADMAP item 3 keeps it open
    "co_purchase_matrix",
    # acceptance test 5 checks the amplification map against it
    "gamma_of",
    # acceptance test 1 reads the published table's margins through it
    "marginal",
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
