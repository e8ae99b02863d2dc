"""Seed-derived synthetic tools for generated scenario corpora.

Every tool type a generated scenario declares carries its seed *salt*
inside the entity-type description (``synthetic salt=<hex>``), so the
schema file alone is enough to rebuild the tool code after a reload —
the corpus equivalent of
:func:`repro.tools.encapsulations.register_standard_encapsulations`.

The tool body is a pure function of the salt and the input payloads:
one run produces, per output entity type, a small dict whose ``token``
is a sha256 over the salt, the output type and a digest of every input
role.  Two properties follow:

* **digest reproducibility** — the same corpus seed yields byte-for-byte
  identical data objects (and therefore identical content-addressed
  ``data_ref`` digests) on every executor and history backend;
* **cache correctness** — the salt rides in the encapsulation's preset
  arguments, so it is part of the encapsulation fingerprint and two
  scenarios never share derivation-cache keys.

The module-level function keeps the encapsulation picklable for the
process-pool executor, whose forked workers re-resolve it by qualified
name.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..execution.encapsulation import ToolContext, encapsulation

#: Marker prefix inside a generated tool type's description; everything
#: after it is the hex salt the synthetic tool mixes into its outputs.
SALT_MARKER = "synthetic salt="


def canonical_json(value: Any) -> str:
    """Canonical JSON used for every corpus-side digest."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def corpus_digest(text: str) -> str:
    """The corpus generator's one hash function (sha256 hex)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def source_payload(salt: str, entity_type: str) -> dict[str, Any]:
    """The deterministic data object installed for one source type."""
    token = corpus_digest(f"source:{salt}:{entity_type}")[:32]
    return {"kind": "source", "entity": entity_type, "token": token}


def derived_payload(salt: str, entity_type: str,
                    inputs: dict[str, Any]) -> dict[str, Any]:
    """One synthetic tool output for one output entity type.

    Mirrored by the generator's offline simulation: the manifest's
    expected digests are computed by calling exactly this function over
    the scenario's dependency structure, never by running a tool.  The
    summary lists roles sorted, so the caller's input order (executors
    sort roles, the simulation walks nodes) never changes the data.
    """
    summary = {role: corpus_digest(canonical_json(inputs[role]))[:32]
               for role in sorted(inputs)}
    token = corpus_digest(canonical_json(
        {"salt": salt, "entity": entity_type, "inputs": summary}))[:32]
    return {"kind": "derived", "entity": entity_type, "token": token,
            "inputs": summary}


def synthetic_tool(ctx: ToolContext, inputs: dict[str, Any]) -> Any:
    """Encapsulation body shared by every generated tool type."""
    salt = str(ctx.options.get("salt", ""))
    produced = {output_type: derived_payload(salt, output_type, inputs)
                for output_type in ctx.output_types}
    if len(ctx.output_types) == 1:
        return produced[ctx.output_types[0]]
    return produced


def salt_of(description: str) -> str | None:
    """Extract the salt from a generated tool type's description."""
    if description.startswith(SALT_MARKER):
        return description[len(SALT_MARKER):]
    return None


def register_corpus_encapsulations(env: Any) -> tuple[str, ...]:
    """Register the synthetic tool for every salted tool type.

    Safe on any environment: tool types without the description marker
    (standard schemas) and types that already resolve to an
    encapsulation are left alone, so the CLI can call this on every
    load exactly like the standard-tool registration.
    """
    registered: list[str] = []
    for entity in env.schema.tools():
        salt = salt_of(entity.description)
        if salt is None:
            continue
        if env.registry.has_encapsulation(entity.name):
            continue
        env.registry.register(
            entity.name,
            encapsulation(f"syn-{entity.name}", synthetic_tool,
                          salt=salt))
        registered.append(entity.name)
    return tuple(registered)
