"""Tool encapsulations: binding schema tool types to executable code.

Section 3.3 describes several encapsulation patterns, all supported here:

* one tool serving several entity types (a program that is both a layout
  editor and an extractor) — install the same underlying object as two
  tool instances of different types, each type with its own encapsulation;
* several behaviours of one entity type selected by arguments — register
  *instance-specific* encapsulations carrying different ``preset_args``;
* options/arguments as an entity type — the encapsulation receives them
  as an ordinary input role (``SimArgs`` in the standard schema);
* *"It is also possible to share encapsulation code among several tools.
  For example, we have encapsulated three statistical circuit
  optimization tools that take exactly the same input arguments and
  produce the same type of output using this technique"* — register one
  encapsulation for a common ancestor tool type (``Optimizer``); lookup
  walks the subtype chain;
* tools as data inputs to other tools — the input role's value is the
  tool instance's data object, like any other input.

The call contract is ``fn(ctx, inputs)`` where ``ctx`` is a
:class:`ToolContext` and ``inputs`` maps role names to data objects (or
lists of them in ``batch`` mode).  The return value is the produced data —
a single object when the invocation has one output, else a dict keyed by
output entity type.
"""

from __future__ import annotations

import hashlib
import json
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..errors import EncapsulationError
from ..schema.schema import TaskSchema


def _const_token(value: Any) -> str:
    """Process-stable token for one code constant.

    Nested code objects (comprehensions, lambdas) repr with their memory
    address, so they are hashed structurally instead.
    """
    if isinstance(value, types.CodeType):
        inner = ",".join(_const_token(c) for c in value.co_consts)
        return ("code:"
                + hashlib.sha256(value.co_code).hexdigest()
                + ":" + inner)
    return repr(value)


def fingerprint_callable(fn: Callable[..., Any]) -> str:
    """Stable identity of a tool/composition callable.

    Hashes the code object (bytecode + constants) when one is available,
    so editing the implementation — not merely re-importing it — changes
    the fingerprint.  Builtins and other code-less callables fall back to
    their qualified name.  The result is stable across processes.
    """
    parts = [getattr(fn, "__module__", "") or "",
             getattr(fn, "__qualname__", repr(fn))]
    code = getattr(fn, "__code__", None)
    if code is not None:
        parts.append(hashlib.sha256(code.co_code).hexdigest())
        parts.append(",".join(_const_token(c) for c in code.co_consts))
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ToolContext:
    """Execution context handed to an encapsulation."""

    tool_type: str
    tool_instance_id: str | None
    tool_data: Any
    output_types: tuple[str, ...]
    options: dict[str, Any] = field(default_factory=dict)
    user: str = ""


EncapsulationFn = Callable[[ToolContext, dict[str, Any]], Any]


@dataclass(frozen=True)
class ToolEncapsulation:
    """Executable wrapper for one tool type (or tool instance).

    Attributes
    ----------
    name:
        Display name (shows up in execution reports).
    fn:
        The callable implementing the tool behaviour.
    batch:
        ``False`` (default): when a set of instances is selected for an
        input role, the task runs once per instance.  ``True``: all
        selected data is passed to a single call as a list — section
        4.1's *"the relevant encapsulation may cause the tool to be run
        for each instance selected or it may pass all of the data to a
        single call of the tool"*.
    preset_args:
        Options merged into :attr:`ToolContext.options`; this is how two
        encapsulations of one tool select different behaviours.
    """

    name: str
    fn: EncapsulationFn
    batch: bool = False
    preset_args: tuple[tuple[str, Any], ...] = ()

    def options(self) -> dict[str, Any]:
        return dict(self.preset_args)

    def fingerprint(self) -> str:
        """Version stamp of this encapsulation for derivation keys.

        Covers the wrapped callable, the batch mode and every preset
        argument, so re-registering a tool with different behaviour (new
        code or new parameters) invalidates previously cached runs.
        """
        spec = json.dumps(
            {"fn": fingerprint_callable(self.fn), "batch": self.batch,
             "preset": [[k, repr(v)] for k, v in self.preset_args]},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(spec.encode("utf-8")).hexdigest()

    def run(self, ctx: ToolContext, inputs: dict[str, Any]) -> Any:
        return self.fn(ctx, inputs)

    def with_args(self, name: str | None = None,
                  **preset: Any) -> "ToolEncapsulation":
        """A variant of this encapsulation with different preset options."""
        merged = dict(self.preset_args)
        merged.update(preset)
        return ToolEncapsulation(name or self.name, self.fn, self.batch,
                                 tuple(sorted(merged.items())))


def encapsulation(name: str, fn: EncapsulationFn, *, batch: bool = False,
                  **preset: Any) -> ToolEncapsulation:
    """Convenience constructor with keyword preset arguments."""
    return ToolEncapsulation(name, fn, batch, tuple(sorted(preset.items())))


CompositionFn = Callable[[dict[str, Any]], Any]


def default_composition(inputs: dict[str, Any]) -> dict[str, Any]:
    """Implicit composition: group the components under their role names.

    Section 3.1 footnote: design data is often stored separately, with
    the composite entity storing pointers to the component parts — the
    default composition does exactly that at the data level (the
    *instance*-level pointers live in the derivation record).
    """
    return dict(inputs)


class EncapsulationRegistry:
    """Resolves tool types / tool instances to encapsulations.

    Lookup order for a tool instance of type ``T``:

    1. an instance-specific encapsulation registered for its id;
    2. an encapsulation registered for ``T``;
    3. walking up ``T``'s supertype chain (shared encapsulations).

    Composition functions for composed entities resolve the same way
    through the composed entity's own subtype chain, defaulting to
    :func:`default_composition`.
    """

    def __init__(self, schema: TaskSchema) -> None:
        self.schema = schema
        self._by_type: dict[str, ToolEncapsulation] = {}
        self._by_instance: dict[str, ToolEncapsulation] = {}
        self._compositions: dict[str, CompositionFn] = {}
        self._decompositions: dict[str, Callable[[Any], dict[str, Any]]] = {}

    # -- registration ----------------------------------------------------
    def register(self, tool_type: str,
                 encapsulation: ToolEncapsulation) -> None:
        entity = self.schema.entity(tool_type)
        if not entity.is_tool:
            raise EncapsulationError(
                f"{tool_type!r} is not a tool entity type")
        self._by_type[tool_type] = encapsulation

    def register_for_instance(self, instance_id: str,
                              encapsulation: ToolEncapsulation) -> None:
        self._by_instance[instance_id] = encapsulation

    def register_composition(self, entity_type: str,
                             fn: CompositionFn) -> None:
        entity = self.schema.entity(entity_type)
        if not entity.composed:
            raise EncapsulationError(
                f"{entity_type!r} is not a composed entity type")
        self._compositions[entity_type] = fn

    def register_decomposition(self, entity_type: str,
                               fn: Callable[[Any], dict[str, Any]]) -> None:
        entity = self.schema.entity(entity_type)
        if not entity.composed:
            raise EncapsulationError(
                f"{entity_type!r} is not a composed entity type")
        self._decompositions[entity_type] = fn

    # -- resolution ------------------------------------------------------
    def resolve(self, tool_type: str,
                tool_instance_id: str | None = None) -> ToolEncapsulation:
        if tool_instance_id is not None \
                and tool_instance_id in self._by_instance:
            return self._by_instance[tool_instance_id]
        chain = [tool_type, *self.schema.ancestors_of(tool_type)]
        for candidate in chain:
            if candidate in self._by_type:
                return self._by_type[candidate]
        raise EncapsulationError(
            f"no encapsulation registered for tool type {tool_type!r} "
            f"(searched {chain})")

    def has_encapsulation(self, tool_type: str) -> bool:
        chain = [tool_type, *self.schema.ancestors_of(tool_type)]
        return any(candidate in self._by_type for candidate in chain)

    def composition(self, entity_type: str) -> CompositionFn:
        chain = [entity_type, *self.schema.ancestors_of(entity_type)]
        for candidate in chain:
            if candidate in self._compositions:
                return self._compositions[candidate]
        return default_composition

    def decomposition(self, entity_type: str
                      ) -> Callable[[Any], dict[str, Any]]:
        chain = [entity_type, *self.schema.ancestors_of(entity_type)]
        for candidate in chain:
            if candidate in self._decompositions:
                return self._decompositions[candidate]
        return _default_decomposition

    def registered_types(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_type))

    def signature(self) -> str:
        """Digest over every registered encapsulation/composition.

        Two registries with equal signatures run the same code for every
        tool type, tool instance and composition.  The derivation cache
        does not use it: each derivation key embeds the fingerprint of
        the one encapsulation it names, so a change to any other tool
        leaves the key intact.
        """
        parts = []
        for tool_type, enc in sorted(self._by_type.items()):
            parts.append(f"t:{tool_type}:{enc.fingerprint()}")
        for instance_id, enc in sorted(self._by_instance.items()):
            parts.append(f"i:{instance_id}:{enc.fingerprint()}")
        for entity_type, fn in sorted(self._compositions.items()):
            parts.append(f"c:{entity_type}:{fingerprint_callable(fn)}")
        return hashlib.sha256(
            "\n".join(parts).encode("utf-8")).hexdigest()


def _default_decomposition(data: Any) -> dict[str, Any]:
    """Inverse of :func:`default_composition` for dict-shaped composites."""
    if isinstance(data, Mapping):
        return dict(data)
    raise EncapsulationError(
        "default decomposition only understands mapping-shaped composite "
        f"data, got {type(data).__name__}; register a decomposition")
