"""The public API's size: every value a caller can leave at its default."""

import dataclasses
import importlib
import inspect

MODULES = ("model", "chains", "numeric", "decomp", "classify")

# A new option must be counted here by the change that adds it.
SETTABLE_VALUES = 51


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
