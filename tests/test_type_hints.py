"""Every annotation in ``repro`` resolves.

With ``from __future__ import annotations`` an annotation naming a type the
module never imports is a string nobody evaluates — until
``typing.get_type_hints`` (or a linter's undefined-name rule) looks at it.
This walks every module of the package and resolves the hints of every
function and of every method, static method, class method and property
defined in it, so an unimported annotation name fails tier-1.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

import repro


def _functions():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr_name, attr in vars(obj).items():
                    if isinstance(attr, (staticmethod, classmethod)):
                        attr = attr.__func__
                    elif isinstance(attr, property):
                        attr = attr.fget
                    if inspect.isfunction(attr):
                        yield f"{module.__name__}.{obj.__qualname__}.{attr_name}", attr


def test_every_annotation_resolves():
    checked = 0
    failures = []
    for qualname, func in _functions():
        checked += 1
        try:
            typing.get_type_hints(func)
        except Exception as exc:  # NameError, mostly: a missing import
            failures.append(f"{qualname}: {exc!r}")
    assert checked > 500  # the walk really covered the package
    assert not failures, "\n".join(failures)
