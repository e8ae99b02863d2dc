"""Catalogs: the four starting points of the Hercules UI (Fig. 9).

Section 4.1: *"To start the task, the designer may select a predefined
flow from the flow-catalog, a design entity type from the entity-catalog,
a tool from the tool-catalog, or a piece of data from the data-catalog."*

* :class:`EntityCatalog` and :class:`ToolCatalog` are views over a task
  schema;
* :class:`FlowCatalog` is the library of predefined flows used by the
  plan-based design approach (flows stored here remain dynamically
  *defined* — they were built up by some designer earlier — they are just
  reused as prototypes);
* the data-catalog is the history database itself, browsed through
  :class:`repro.ui.browser.InstanceBrowser`.
"""

from __future__ import annotations

from typing import Any, Callable, Generic, Iterator, TypeVar

from ..errors import SchemaError
from .entity import EntityType
from .schema import TaskSchema

FlowT = TypeVar("FlowT")


class EntityCatalog:
    """Read-only listing of all entity types in a schema."""

    def __init__(self, schema: TaskSchema) -> None:
        self._schema = schema

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._schema.entity_names()))

    def entries(self) -> tuple[EntityType, ...]:
        return tuple(sorted(self._schema.entities(), key=lambda e: e.name))

    def lookup(self, name: str) -> EntityType:
        return self._schema.entity(name)

    def __iter__(self) -> Iterator[EntityType]:
        return iter(self.entries())

    def __len__(self) -> int:
        return len(self._schema)


class ToolCatalog(EntityCatalog):
    """Listing restricted to tool entity types."""

    def entries(self) -> tuple[EntityType, ...]:
        return tuple(sorted(self._schema.tools(), key=lambda e: e.name))

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries())

    def __len__(self) -> int:
        return len(self._schema.tools())


class DataTypeCatalog(EntityCatalog):
    """Listing restricted to data entity types."""

    def entries(self) -> tuple[EntityType, ...]:
        return tuple(sorted(self._schema.data_entities(),
                            key=lambda e: e.name))

    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries())

    def __len__(self) -> int:
        return len(self._schema.data_entities())


class FlowCatalog(Generic[FlowT]):
    """Named library of predefined flows (the plan-based approach).

    Entries are stored as zero-argument factories so that each selection
    yields a *fresh* flow the designer can keep expanding — selecting a
    catalog flow must never mutate the stored prototype.
    """

    def __init__(self) -> None:
        self._factories: dict[str, Callable[[], FlowT]] = {}
        self._descriptions: dict[str, str] = {}
        #: flows registered with :meth:`register_flow` and no copier
        self._prototypes: dict[str, Any] = {}

    def register(self, name: str, factory: Callable[[], FlowT],
                 description: str = "") -> None:
        """Store a flow factory under a unique name."""
        if name in self._factories:
            raise SchemaError(f"flow {name!r} already in catalog")
        self._factories[name] = factory
        self._descriptions[name] = description

    def register_flow(self, name: str, flow: Any, description: str = "",
                      copier: Callable[[Any], FlowT] | None = None) -> None:
        """Store a concrete flow; ``copier`` clones it on each selection.

        Without a copier the flow object itself must supply a ``copy()``
        method (as :class:`repro.core.flow.DynamicFlow` does).
        """
        if copier is None:
            self.register(name, flow.copy, description)
            self._prototypes[name] = flow
        else:
            self.register(name, lambda: copier(flow), description)

    def select(self, name: str) -> FlowT:
        """Return a fresh instance of the named flow."""
        if name not in self._factories:
            raise SchemaError(f"no flow named {name!r} in catalog")
        return self._factories[name]()

    def prototype(self, name: str) -> Any | None:
        """The flow stored by :meth:`register_flow` itself, not a copy
        (None for a factory or copier entry): read it, never change it.
        """
        if name not in self._factories:
            raise SchemaError(f"no flow named {name!r} in catalog")
        return self._prototypes.get(name)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._factories))

    def description(self, name: str) -> str:
        if name not in self._descriptions:
            raise SchemaError(f"no flow named {name!r} in catalog")
        return self._descriptions[name]

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __len__(self) -> int:
        return len(self._factories)
