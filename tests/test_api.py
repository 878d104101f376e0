"""The public API's size: every value a caller can leave at its default,
and the error classes every raise names."""

import ast
import dataclasses
import importlib
import inspect
import pathlib

MODULES = ("model", "chains", "numeric", "decomp", "classify")

# A new option must be counted here by the change that adds it.
SETTABLE_VALUES = 48


def _settable_values() -> list[str]:
    """The defaulted parameters of the public functions and the defaulted
    fields of the public dataclasses of MODULES."""
    names = []
    for module_name in MODULES:
        module = importlib.import_module(f"linkctl.{module_name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if dataclasses.is_dataclass(obj):
                names += [
                    f"{module_name}.{name}.{f.name}"
                    for f in dataclasses.fields(obj)
                    if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
                ]
            elif inspect.isfunction(obj):
                names += [
                    f"{module_name}.{name}({p.name})"
                    for p in inspect.signature(obj).parameters.values()
                    if p.default is not inspect.Parameter.empty
                ]
    return names


def test_settable_values():
    names = _settable_values()
    assert len(names) == SETTABLE_VALUES, "\n".join(names)


# One class per way code handles a failure; a new class is added here by the
# change that adds it, naming its handler.
ERROR_CLASSES = {
    "LinkctlError",  # caught by cli.main
    "InvalidSpec",  # every bad input
    "DegenerateDirection",  # caught by decomp.stage_classify
    "NoConvergence",  # caught by decomp.stage_classify and numeric.trace_curve
    "NoFeasiblePoint",  # caught by the benchmark's sample workload
    "OffConstraint",  # caught by tests/test_decomp.py's _valid_poses filter
}


def test_error_classes():
    errors = importlib.import_module("linkctl.errors")
    classes = inspect.getmembers(errors, inspect.isclass)
    defined = {name: obj for name, obj in classes if obj.__module__ == errors.__name__}
    assert set(defined) == ERROR_CLASSES
    assert all(issubclass(obj, errors.LinkctlError) for obj in defined.values())


def test_every_raise_names_a_concrete_error_class():
    """No module raises the base class, a builtin or a bare re-raise; the one
    exception is Configuration's immutability guard."""
    allowed = ERROR_CLASSES - {"LinkctlError"}
    package = pathlib.Path(importlib.import_module("linkctl").__file__).parent
    stray = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc) if exc else "raise"
                if name not in allowed:
                    stray.append(f"{path.name}:{node.lineno} {name}")
    assert [entry.split()[1] for entry in stray] == ["AttributeError"], stray
    assert stray[0].startswith("model.py:")


def test_only_cli_main_writes_stdout():
    """The CLI's output rule: a command returns its report and ``cli.main``
    alone writes it, last, so no other function touches sys.stdout or calls
    print."""
    package = pathlib.Path(importlib.import_module("linkctl").__file__).parent
    writers = []

    def visit(node, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            printed = isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "print"
            if printed or isinstance(child, ast.Attribute) and child.attr == "stdout":
                writers.append(f"{where}:{child.lineno}")
            visit(child, where)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert [entry.split(":")[0] for entry in writers] == ["cli.main"], writers
