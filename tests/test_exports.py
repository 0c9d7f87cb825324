"""Every name a module lists in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__, "repro.") if info.ispkg
)


def modules_of(package: str) -> list[str]:
    """``package`` and its submodules; for ``repro``, its top-level modules."""
    root = importlib.import_module(package)
    if package == "repro":
        infos = pkgutil.iter_modules(root.__path__, "repro.")
        return [package] + [info.name for info in infos if not info.ispkg]
    infos = pkgutil.walk_packages(root.__path__, package + ".")
    return [package] + [info.name for info in infos]


@pytest.mark.parametrize("package", ["repro"] + SUBPACKAGES)
def test_all_names_resolve(package):
    missing = []
    for name in modules_of(package):
        module = importlib.import_module(name)
        missing += [
            f"{name}.{attr}"
            for attr in getattr(module, "__all__", ())
            if not hasattr(module, attr)
        ]
    assert missing == []
