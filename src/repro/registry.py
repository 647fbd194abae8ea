"""Unified component registry.

Every pluggable component of the reproduction -- hardware multipliers, adder
cells, attacks, model builders, datasets, trained-model zoo entries, hardware
variants and experiment kinds -- is registered in a namespaced
:class:`Registry`.  The registries give the experiment pipeline
(:mod:`repro.pipeline`) a single resolution mechanism: an
:class:`~repro.pipeline.spec.ExperimentSpec` names components as strings and
the :class:`~repro.pipeline.runner.Runner` instantiates them from here.

Each owning package registers its components when it is imported and exposes
its registry under a module constant -- ``MULTIPLIERS`` in
:mod:`repro.arith.fpm`, ``ADDER_CELLS`` in :mod:`repro.arith.adders`,
``ATTACKS`` in :mod:`repro.attacks` -- so ``ATTACKS.create("fgsm",
epsilon=0.1)`` is the one way to build a component by name.

Usage::

    from repro.registry import registry

    MULTIPLIERS = registry("multiplier")

    @MULTIPLIERS.register("exact")
    class ExactMultiplier:
        ...

    MULTIPLIERS.create("exact")        # -> ExactMultiplier()
    MULTIPLIERS.names()                # -> ["exact", ...]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional


class RegistryError(KeyError):
    """Unknown component name (subclasses ``KeyError`` for backwards compat)."""


@dataclass
class RegistryEntry:
    """One registered component: a factory plus free-form metadata."""

    name: str
    factory: Callable[..., Any]
    metadata: Dict[str, Any] = field(default_factory=dict)

    def create(self, **kwargs) -> Any:
        return self.factory(**kwargs)


class Registry:
    """A namespaced name -> factory mapping with decorator support.

    Entries keep registration order (``names()`` is deterministic), lookups of
    unknown names raise :class:`RegistryError` listing the available entries,
    and double registration is an error unless ``overwrite=True``.
    """

    def __init__(self, namespace: str):
        self.namespace = str(namespace)
        self._entries: Dict[str, RegistryEntry] = {}

    # ---------------------------------------------------------- registration
    def register(
        self,
        name: Optional[str] = None,
        factory: Optional[Callable[..., Any]] = None,
        *,
        metadata: Optional[Mapping[str, Any]] = None,
        overwrite: bool = False,
    ):
        """Register a component, directly or as a (class/function) decorator.

        Forms::

            REG.register("name", factory)            # direct
            @REG.register("name")                    # decorator with a name
            @REG.register                            # decorator; infers the name

        The inferred name is the object's ``name`` attribute if it is a
        string (the convention of :class:`Multiplier`, :class:`AdderCell` and
        :class:`Attack`), else ``__name__`` lowercased.
        """
        if callable(name) and factory is None:
            # bare decorator: @REG.register
            return self.register(None, name, metadata=metadata, overwrite=overwrite)

        def _do_register(fn: Callable[..., Any]) -> Callable[..., Any]:
            key = name if name is not None else _infer_name(fn)
            if key in self._entries and not overwrite:
                raise ValueError(
                    f"{self.namespace} registry already has an entry named {key!r}"
                )
            self._entries[key] = RegistryEntry(key, fn, dict(metadata or {}))
            return fn

        if factory is not None:
            return _do_register(factory)
        return _do_register

    def unregister(self, name: str) -> None:
        """Remove an entry (mainly for tests of pluggability)."""
        self._entries.pop(name, None)

    # --------------------------------------------------------------- lookups
    def get(self, name: str) -> RegistryEntry:
        """The raw entry for ``name``; raises :class:`RegistryError` if absent."""
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.namespace} {name!r}; available: {self.names()}"
            ) from None

    def create(self, name: str, **kwargs) -> Any:
        """Instantiate the named component with ``kwargs``."""
        return self.get(name).create(**kwargs)

    def metadata(self, name: str) -> Dict[str, Any]:
        """Metadata dict attached at registration time."""
        return self.get(name).metadata

    def names(self) -> List[str]:
        """Registered names, in registration order."""
        return list(self._entries)

    # ------------------------------------------------------------- protocol
    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Registry({self.namespace!r}, {self.names()})"


def _infer_name(fn: Callable[..., Any]) -> str:
    name = getattr(fn, "name", None)
    if isinstance(name, str) and name:
        return name
    return fn.__name__.lower()


# ------------------------------------------------------------------ the hub
_REGISTRIES: Dict[str, Registry] = {}


def registry(namespace: str) -> Registry:
    """The global registry for ``namespace`` (created on first use)."""
    try:
        return _REGISTRIES[namespace]
    except KeyError:
        _REGISTRIES[namespace] = Registry(namespace)
        return _REGISTRIES[namespace]


def namespaces() -> List[str]:
    """All namespaces that have a registry."""
    return sorted(_REGISTRIES)
