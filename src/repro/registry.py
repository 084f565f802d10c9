"""One generic ``type`` registry for every spec-expressible seam.

Every axis of the experiment grid (platform, failure model, trace source,
transform, overhead/execution-time model, admission policy, telemetry,
accumulator, collector, scenario source, devtools rule) is named
from a spec file through a ``{"type": <kind>, ...options}`` mapping.  Each
seam owns one :class:`Registry` instance; this module is the only place
that checks "spec is a mapping", "``type`` present", "type known", "name not
already taken" and "the factory rejected its options".  Every instance adds
itself to :func:`all_registries`, which is what the REG601 audit and the
registry contract test walk — nobody maintains a list of registries.

Duplicate names are always an error, even for the same factory: no caller
re-registers, and a second registration is a second import of the defining
module more often than it is intent.

Deliberately *not* a ``Registry``: ``schedulers/registry.py`` parses a name
grammar (``dynmcb8-per-<seconds>``) rather than looking a name up, and
``packing.get_packer`` maps names to plain callables with no spec form.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Callable, Dict, Generic, List, Mapping, Optional, Tuple, TypeVar

from .exceptions import ConfigurationError

__all__ = ["Registry", "all_registries", "content_fingerprint"]

T = TypeVar("T")
F = TypeVar("F", bound=Callable[..., Any])

_REGISTRIES: List["Registry[Any]"] = []


def all_registries() -> List["Registry[Any]"]:
    """Every :class:`Registry` created so far, in creation order."""
    return list(_REGISTRIES)


def content_fingerprint(source: Any) -> Optional[str]:
    """Digest of the file at ``source.path``, hashed once per source object.

    A file-backed spec's ``to_dict`` emits it as the ``content`` derived key,
    so editing the file in place changes the spec (and the scenario hash)
    instead of silently serving stale cached rows.  Memoised on the (frozen)
    source because the executor serialises the scenario once per finished
    cell; the file cannot meaningfully change mid-run, and a rerun constructs
    a fresh source anyway.  ``None`` when the file cannot be read.
    """
    cached = getattr(source, "_content_cache", None)
    if cached is None:
        try:
            cached = hashlib.sha256(Path(source.path).read_bytes()).hexdigest()[:16]
        except OSError:
            cached = ""
        object.__setattr__(source, "_content_cache", cached)
    return cached or None


class Registry(Generic[T]):
    """Name → factory table of one seam, with its spec-form loader.

    ``label`` names the seam in error messages (``"platform"``).  ``base``,
    when given, is the seam's abstract class: REG601 then requires every
    concrete subclass with a ``kind`` and a ``to_dict`` to be registered
    under that kind.  ``derived_keys`` are spec fields ``to_dict`` emits
    that are not constructor arguments (content fingerprints); ``from_dict``
    drops them.
    """

    def __init__(
        self,
        label: str,
        base: Optional[type] = None,
        derived_keys: Tuple[str, ...] = (),
    ) -> None:
        self.label = label
        self.base = base
        self.derived_keys = derived_keys
        self._factories: Dict[str, Callable[..., T]] = {}
        _REGISTRIES.append(self)

    def register(self, name: str, factory: F) -> F:
        """Bind ``name`` to ``factory``; returns ``factory`` (decorator-friendly)."""
        if name in self._factories:
            raise ConfigurationError(f"{self.label} type {name!r} already registered")
        self._factories[name] = factory
        return factory

    def available(self) -> List[str]:
        """Registered type names, sorted."""
        return sorted(self._factories)

    def items(self) -> List[Tuple[str, Callable[..., T]]]:
        """``(name, factory)`` pairs, sorted by name."""
        return sorted(self._factories.items())

    def lookup(self, name: str) -> Callable[..., T]:
        """The factory registered under ``name``."""
        try:
            return self._factories[name]
        except (KeyError, TypeError):  # TypeError: an unhashable "type" value
            raise ConfigurationError(
                f"unknown {self.label} type {name!r}; known types: "
                f"{', '.join(self.available())}"
            ) from None

    def create(self, name: str, **options: Any) -> T:
        """Instantiate the type registered under ``name`` with ``options``."""
        factory = self.lookup(name)
        try:
            return factory(**options)
        except TypeError as error:
            raise ConfigurationError(
                f"invalid options for {self.label} {name!r}: {error}"
            ) from None

    def kind_of(self, spec: Mapping[str, Any]) -> str:
        """The ``type`` field of a spec, after checking the spec's shape."""
        if not isinstance(spec, Mapping):
            raise ConfigurationError(
                f"{self.label} spec must be an object with a 'type' field, "
                f"got {type(spec).__name__}"
            )
        if "type" not in spec:
            raise ConfigurationError(f"{self.label} spec needs a 'type' field")
        return spec["type"]

    def from_dict(self, spec: Mapping[str, Any]) -> T:
        """Build an instance from its spec mapping (inverse of ``to_dict``)."""
        kind = self.kind_of(spec)
        options = {
            key: value
            for key, value in spec.items()
            if key != "type" and key not in self.derived_keys
        }
        return self.create(kind, **options)
