"""One name -> recipe table for every registry in the stack.

Search strategies, execution backends, hardware platforms, accuracy
sources, workloads, reward scenarios and study presets are each a
:class:`Registry` behind their module's public ``register_*`` /
``get_*`` / ``list_*`` functions, so a recipe name resolves the same
way in every table: the same entry registered again is a no-op, a
different one under a taken name raises unless ``overwrite=True``, an
unknown name raises the table's own error class listing every
registered name, listings are sorted, and built-in modules register
on the first lookup.  The helpers below give every recipe the same
checks of its flat parameter mapping and the one params digest that
cache namespaces append.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
from dataclasses import asdict
from typing import Generic, Iterable, TypeVar

__all__ = [
    "Registry",
    "check_params",
    "check_positive",
    "init_param_names",
    "params_token",
]

T = TypeVar("T")


class Registry(Generic[T]):
    """A name -> entry table for one kind of recipe.

    ``kind`` names the recipe in messages (``"strategy"``,
    ``"hardware platform"``); ``error`` is the table's own error class;
    ``builtins`` are modules that register the shipped entries, imported
    on the first lookup.
    """

    def __init__(
        self,
        kind: str,
        error: type[Exception] = ValueError,
        builtins: Iterable[str] = (),
    ) -> None:
        self.kind = kind
        self.error = error
        self._builtins = tuple(builtins)
        self._entries: dict[str, T] = {}

    def register(self, name: str, entry: T, overwrite: bool = False) -> T:
        """Add ``entry`` under ``name``; returns the registered entry.

        The same entry again (the same object, or an equal recipe) is a
        no-op, so modules can register at import time safely; a
        different entry under a taken name raises unless ``overwrite``.
        """
        if not name or not isinstance(name, str):
            raise self.error(
                f"{self.kind} {entry!r} has no name; register it under a "
                "non-empty name"
            )
        existing = self._entries.get(name)
        if existing is not None and not overwrite:
            if existing is entry or existing == entry:
                return existing
            raise self.error(
                f"{self.kind} {name!r} is already registered; pass "
                "overwrite=True to replace it"
            )
        self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove ``name`` if registered (plugin and test cleanup)."""
        self._entries.pop(name, None)

    def _load_builtins(self) -> None:
        for module in self._builtins:
            importlib.import_module(module)

    def get(self, name: str) -> T:
        """The entry registered under ``name``."""
        self._load_builtins()
        try:
            return self._entries[name]
        except KeyError:
            raise self.error(
                f"unknown {self.kind} {name!r}; registered: "
                f"{', '.join(sorted(self._entries))}"
            ) from None

    def __contains__(self, name: object) -> bool:
        self._load_builtins()
        return name in self._entries

    def names(self) -> list[str]:
        """Registered names, sorted."""
        self._load_builtins()
        return sorted(self._entries)

    def items(self) -> list[tuple[str, T]]:
        """(name, entry) pairs, sorted by name."""
        self._load_builtins()
        return sorted(self._entries.items())  # names are unique keys


def check_params(
    what: str,
    params: dict | None,
    allowed: Iterable[str] | None,
    error: type[Exception] = ValueError,
) -> dict:
    """A copy of ``params`` checked against the ``allowed`` names.

    ``what`` names the recipe in messages (``"strategy 'evolution'"``).
    ``None`` params mean none; ``allowed=None`` accepts any name (a
    constructor taking ``**kwargs``).  Raises ``error`` when ``params``
    is not a mapping or names a parameter outside ``allowed``.
    """
    if params is None:
        return {}
    if not isinstance(params, dict):
        raise error(
            f"{what}: params must be a mapping, got {type(params).__name__}"
        )
    if allowed is not None:
        allowed = sorted(allowed)
        unknown = sorted(set(params) - set(allowed))
        if unknown:
            hint = f"allowed: {allowed}" if allowed else "it takes no parameters"
            raise error(f"{what} got unknown parameter(s) {unknown}; {hint}")
    return dict(params)


def check_positive(
    what: str, name: str, value, error: type[Exception] = ValueError
) -> float:
    """``value`` as a positive float; raises ``error`` naming ``name``."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = float("nan")
    if not number > 0:
        raise error(f"{what}: {name} must be a positive number, got {value!r}")
    return number


def init_param_names(cls: type) -> list[str] | None:
    """The parameter names ``cls``'s constructor accepts, ``self`` excluded.

    ``None`` when the constructor takes ``**kwargs`` (any name goes);
    ``[]`` when the class defines no constructor, whose inherited
    ``object.__init__(*args, **kwargs)`` would otherwise make every
    name look acceptable and then fail at construction time.
    """
    if cls.__init__ is object.__init__:
        return []
    parameters = inspect.signature(cls.__init__).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return None
    return [name for name in parameters if name != "self"]


def params_token(params: dict | None) -> str:
    """A short stable digest of a params mapping ('' when empty).

    Appended to cache namespaces so that *any* parameter difference —
    not just the ones a hand-written namespace spells out — keeps two
    configurations from sharing cached rows.  Dataclass values digest
    by their fields.
    """
    if not params:
        return ""
    blob = json.dumps(
        {
            key: asdict(value) if hasattr(value, "__dataclass_fields__") else value
            for key, value in params.items()
        },
        sort_keys=True,
        default=str,
    )
    return "/p" + hashlib.md5(blob.encode()).hexdigest()[:10]
