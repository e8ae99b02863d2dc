"""The task schema: construction rules for flows and data schema for history.

Section 3.1 of the paper: *"A task schema is a graph that specifies the
dependencies between design entities (both tools and data).  The dependency
relationships described in a task schema serve two purposes.  First, they
state the construction rules by which tasks (tool independent design
functions) can be built.  Second, they specify the data schema for a
database that stores the design derivation history."*

:class:`TaskSchema` therefore answers two families of questions:

* construction — what tool and what data inputs produce an entity of a given
  type (:meth:`TaskSchema.construction`), which subtypes a designer may
  *specialize* to (:meth:`TaskSchema.subtypes_of`), and which entities could
  *consume* a given entity (:meth:`TaskSchema.consumers_of`, used for
  forward expansion of a flow);
* validity — whether a set of entity types and dependency arcs forms a legal
  schema (:meth:`TaskSchema.validate`), enforcing the paper's rules: at most
  one functional dependency per entity, composed entities have no functional
  dependency, functional dependencies point at tools, and every dependency
  cycle is broken by an optional arc.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..dag import CycleError, topological
from ..errors import DependencyError, SubtypeError, UnknownEntityError
from .dependency import Dependency
from .entity import EntityType


@dataclass(frozen=True)
class ConstructionMethod:
    """How instances of one entity type are created.

    A *primitive task* in the paper: the tool given by the entity's
    functional dependency plus the data inputs given by its data
    dependencies.  ``tool`` is ``None`` for composed entities, whose
    implicit composition function groups the inputs instead of running a
    tool.
    """

    produced: str
    tool: str | None
    inputs: tuple[Dependency, ...]

    @property
    def required_inputs(self) -> tuple[Dependency, ...]:
        """Data dependencies that must be present in a flow."""
        return tuple(dep for dep in self.inputs if not dep.optional)

    @property
    def optional_inputs(self) -> tuple[Dependency, ...]:
        """Optional (cycle-breaking) data dependencies."""
        return tuple(dep for dep in self.inputs if dep.optional)

    @property
    def is_composed(self) -> bool:
        return self.tool is None

    def input_role(self, role: str) -> Dependency:
        for dep in self.inputs:
            if dep.role == role:
                return dep
        raise DependencyError(
            f"entity {self.produced!r} has no input role {role!r}"
        )


class TaskSchema:
    """A validated graph of entity types and dependencies.

    The schema is mutable while being built (via :meth:`add_entity` and
    :meth:`add_dependency` or the :class:`~repro.schema.builder.SchemaBuilder`)
    and is checked by :meth:`validate`, which all higher layers call before
    trusting it.
    """

    def __init__(self, name: str = "schema") -> None:
        self.name = name
        self._entities: dict[str, EntityType] = {}
        self._deps: list[Dependency] = []
        self._children: dict[str, list[str]] = {}
        # each source's dependencies, in the order of ``_deps``
        self._own: dict[str, list[Dependency]] = {}
        # effective_dependencies per type; every mutator clears it
        self._effective: dict[str, tuple[Dependency, ...]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_entity(self, entity: EntityType) -> EntityType:
        """Add an entity type; names are unique within the schema."""
        if entity.name in self._entities:
            raise SubtypeError(f"duplicate entity type {entity.name!r}")
        self._entities[entity.name] = entity
        self._effective.clear()
        if entity.parent is not None:
            self._children.setdefault(entity.parent, []).append(entity.name)
        return entity

    def add_entities(self, entities: Iterable[EntityType]) -> None:
        for entity in entities:
            self.add_entity(entity)

    def add_dependency(self, dep: Dependency) -> Dependency:
        """Add a dependency arc between two declared entity types."""
        for endpoint in (dep.source, dep.target):
            if endpoint not in self._entities:
                raise UnknownEntityError(endpoint)
        own = self._own.get(dep.source, [])
        if dep.is_functional:
            existing = [d for d in own if d.is_functional]
            if existing:
                raise DependencyError(
                    f"entity {dep.source!r} already has a functional "
                    f"dependency on {existing[0].target!r}; at most one is "
                    "allowed"
                )
            if not self._entities[dep.target].is_tool:
                raise DependencyError(
                    f"{dep}: functional dependencies must point at a tool "
                    "entity"
                )
            if self._entities[dep.source].composed:
                raise DependencyError(
                    f"{dep}: composed entities have no functional dependency"
                )
        else:
            same_role = [d for d in own
                         if d.is_data and d.role == dep.role]
            if same_role:
                raise DependencyError(
                    f"{dep}: role {dep.role!r} already used by "
                    f"{same_role[0]}"
                )
        self._deps.append(dep)
        self._own.setdefault(dep.source, []).append(dep)
        self._effective.clear()
        return dep

    def add_dependencies(self, deps: Iterable[Dependency]) -> None:
        for dep in deps:
            self.add_dependency(dep)

    # ------------------------------------------------------------------
    # basic lookups
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._entities

    def __len__(self) -> int:
        return len(self._entities)

    def entity(self, name: str) -> EntityType:
        try:
            return self._entities[name]
        except KeyError:
            raise UnknownEntityError(name) from None

    def entities(self) -> tuple[EntityType, ...]:
        return tuple(self._entities.values())

    def entity_names(self) -> tuple[str, ...]:
        return tuple(self._entities)

    def dependencies(self) -> tuple[Dependency, ...]:
        return tuple(self._deps)

    def tools(self) -> tuple[EntityType, ...]:
        """All tool entity types (the paper's tool-catalog)."""
        return tuple(e for e in self._entities.values() if e.is_tool)

    def data_entities(self) -> tuple[EntityType, ...]:
        """All data entity types (the data side of the entity-catalog)."""
        return tuple(e for e in self._entities.values() if e.is_data)

    # ------------------------------------------------------------------
    # subtype relation
    # ------------------------------------------------------------------
    def subtypes_of(self, name: str) -> tuple[str, ...]:
        """Direct subtypes of an entity type (specialization choices)."""
        self.entity(name)
        return tuple(self._children.get(name, ()))

    def descendants_of(self, name: str) -> tuple[str, ...]:
        """All transitive subtypes, in breadth-first order."""
        self.entity(name)
        out: list[str] = []
        frontier = list(self._children.get(name, ()))
        while frontier:
            child = frontier.pop(0)
            out.append(child)
            frontier.extend(self._children.get(child, ()))
        return tuple(out)

    def ancestors_of(self, name: str) -> tuple[str, ...]:
        """Chain of supertypes from direct parent to the root."""
        entity = self.entity(name)
        out: list[str] = []
        seen = {name}
        while entity.parent is not None:
            if entity.parent in seen:
                raise SubtypeError(f"subtype cycle through {entity.parent!r}")
            seen.add(entity.parent)
            out.append(entity.parent)
            entity = self.entity(entity.parent)
        return tuple(out)

    def is_subtype(self, name: str, ancestor: str) -> bool:
        """True if ``name`` equals ``ancestor`` or specializes it."""
        return name == ancestor or ancestor in self.ancestors_of(name)

    def root_of(self, name: str) -> str:
        """The top of the subtype chain containing ``name``."""
        ancestors = self.ancestors_of(name)
        return ancestors[-1] if ancestors else name

    # ------------------------------------------------------------------
    # effective dependencies and construction methods
    # ------------------------------------------------------------------
    def own_dependencies(self, name: str) -> tuple[Dependency, ...]:
        """Dependencies declared directly on an entity type."""
        self.entity(name)
        return tuple(self._own.get(name, ()))

    def effective_dependencies(self, name: str) -> tuple[Dependency, ...]:
        """Dependencies of a type including those inherited from supertypes.

        A functional dependency declared on a subtype *replaces* an
        inherited one (it is a different construction method); a data
        dependency with the same role as an inherited one overrides it;
        other inherited data dependencies accumulate.
        """
        if name in self._effective:
            return self._effective[name]
        chain = [name, *self.ancestors_of(name)]
        functional_dep: Dependency | None = None
        data_by_role: dict[str, Dependency] = {}
        # Walk from the root down so more-derived declarations win.
        for type_name in reversed(chain):
            own = self.own_dependencies(type_name)
            own_functional = [d for d in own if d.is_functional]
            if own_functional:
                functional_dep = own_functional[0]
            for dep in own:
                if dep.is_data:
                    data_by_role[dep.role] = dep
        deps: list[Dependency] = []
        if functional_dep is not None:
            deps.append(functional_dep)
        deps.extend(data_by_role.values())
        self._effective[name] = tuple(deps)
        return self._effective[name]

    def functional_dependency(self, name: str) -> Dependency | None:
        """The (possibly inherited) functional dependency of a type."""
        for dep in self.effective_dependencies(name):
            if dep.is_functional:
                return dep
        return None

    def data_dependencies(self, name: str) -> tuple[Dependency, ...]:
        """The (possibly inherited) data dependencies of a type."""
        return tuple(d for d in self.effective_dependencies(name)
                     if d.is_data)

    def construction(self, name: str) -> ConstructionMethod | None:
        """The primitive task that produces entities of this type.

        Returns ``None`` for *source* entities (no dependencies at all:
        they enter the design from outside, like raw Stimuli).  Composed
        entities return a method with ``tool is None``.  Abstract entities
        (no construction of their own but constructible subtypes) also
        return ``None`` — the designer must specialize first.
        """
        entity = self.entity(name)
        functional_dep = self.functional_dependency(name)
        inputs = self.data_dependencies(name)
        if functional_dep is not None:
            return ConstructionMethod(name, functional_dep.target, inputs)
        if entity.composed or self._entity_is_composed_via_parent(name):
            return ConstructionMethod(name, None, inputs)
        return None

    def _entity_is_composed_via_parent(self, name: str) -> bool:
        entity = self.entity(name)
        if entity.composed:
            return True
        return any(self.entity(a).composed for a in self.ancestors_of(name))

    def is_abstract(self, name: str) -> bool:
        """True if the type cannot be constructed without specialization.

        An abstract type has no construction method of its own (and none
        inherited) but at least one descendant that has one.
        """
        if self.construction(name) is not None:
            return False
        return any(self.construction(d) is not None
                   for d in self.descendants_of(name))

    def is_source(self, name: str) -> bool:
        """True if instances enter the design from outside any flow."""
        return (self.construction(name) is None
                and not self.is_abstract(name))

    def constructible_specializations(self, name: str) -> tuple[str, ...]:
        """Descendants of an abstract type that have a construction method."""
        return tuple(d for d in self.descendants_of(name)
                     if self.construction(d) is not None)

    # ------------------------------------------------------------------
    # navigation used by flow expansion
    # ------------------------------------------------------------------
    def consumers_of(self, name: str) -> tuple[Dependency, ...]:
        """Dependencies whose target is ``name`` or a supertype of it.

        Used by *forward* expansion: given a node of type ``name``, which
        entity types could be produced from it?  A dependency on a
        supertype accepts a subtype instance (an Extracted Netlist may be
        used wherever a Netlist is required).
        """
        acceptable = {name, *self.ancestors_of(name)}
        return tuple(d for d in self._deps if d.target in acceptable)

    def producible_from(self, name: str) -> tuple[str, ...]:
        """Entity types that can take a ``name`` entity as input or tool."""
        seen: list[str] = []
        for dep in self.consumers_of(name):
            if dep.source not in seen:
                seen.append(dep.source)
        return tuple(seen)

    def outputs_of_tool(self, tool_name: str) -> tuple[str, ...]:
        """Entity types functionally dependent on a tool type.

        A tool producing several of these from the same inputs is the
        paper's 'multiple outputs from the same subtask' (Fig. 5).
        """
        entity = self.entity(tool_name)
        if not entity.is_tool:
            raise DependencyError(f"{tool_name!r} is not a tool entity")
        acceptable = {tool_name, *self.descendants_of(tool_name)}
        return tuple(d.source for d in self._deps
                     if d.is_functional and d.target in acceptable)

    def editing_entities(self) -> tuple[str, ...]:
        """Entity types whose construction edits data of their own family.

        Section 4.2: *"Versioning is closely associated with editing tasks
        which, in a task schema, are characterized by having a data
        dependency whose source and target are of the same entity type."*
        Subtype families count: *Edited Layout --d--> Layout* is an edit.
        """
        out: list[str] = []
        for dep in self._deps:
            if not dep.is_data:
                continue
            if self.root_of(dep.source) == self.root_of(dep.target):
                if dep.source not in out:
                    out.append(dep.source)
        return tuple(out)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every schema rule; raise :class:`SchemaError` on violation."""
        self._validate_subtype_relation()
        self._validate_dependency_endpoints()
        self._validate_functional_rules()
        self._validate_acyclicity()

    def _validate_subtype_relation(self) -> None:
        for entity in self._entities.values():
            if entity.parent is None:
                continue
            if entity.parent not in self._entities:
                raise SubtypeError(
                    f"entity {entity.name!r} has unknown parent "
                    f"{entity.parent!r}"
                )
            parent = self._entities[entity.parent]
            if parent.kind is not entity.kind:
                raise SubtypeError(
                    f"entity {entity.name!r} ({entity.kind}) cannot "
                    f"specialize {parent.name!r} ({parent.kind})"
                )
            # ancestors_of raises on cycles
            self.ancestors_of(entity.name)

    def _validate_dependency_endpoints(self) -> None:
        for dep in self._deps:
            for endpoint in (dep.source, dep.target):
                if endpoint not in self._entities:
                    raise UnknownEntityError(endpoint)

    def _validate_functional_rules(self) -> None:
        for entity in self._entities.values():
            own_functional = [d for d in self.own_dependencies(entity.name)
                              if d.is_functional]
            if len(own_functional) > 1:
                raise DependencyError(
                    f"entity {entity.name!r} declares "
                    f"{len(own_functional)} functional dependencies"
                )
            if entity.composed and self.functional_dependency(entity.name):
                raise DependencyError(
                    f"composed entity {entity.name!r} must not have a "
                    "functional dependency"
                )
            for dep in own_functional:
                if not self._entities[dep.target].is_tool:
                    raise DependencyError(
                        f"{dep}: functional target must be a tool"
                    )

    def _validate_acyclicity(self) -> None:
        """Every cycle must contain at least one optional dependency.

        Equivalently: the subgraph of *mandatory* effective dependencies
        must be acyclic.  (Section 3.1: loops 'are broken by considering
        the data dependency as optional'.)
        """
        adjacency: dict[str, list[str]] = {n: [] for n in self._entities}
        for name in self._entities:
            for dep in self.effective_dependencies(name):
                if dep.is_data and dep.optional:
                    continue
                adjacency[name].append(dep.target)
        try:
            topological(self._entities, adjacency.__getitem__)
        except CycleError as cycle:
            raise DependencyError(
                "mandatory dependency cycle (mark one arc optional "
                "to break it): " + " -> ".join(cycle.path)) from None

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[EntityType]:
        return iter(self._entities.values())

    def __repr__(self) -> str:
        return (f"TaskSchema({self.name!r}, {len(self._entities)} entities, "
                f"{len(self._deps)} dependencies)")
