"""Memoised code fingerprints against the unmemoised oracle.

``fingerprint_callable`` remembers its digest per module, qualified
name and code object, and ``ToolEncapsulation.fingerprint`` per
callable fingerprint, batch mode and preset reprs.  Every value must
stay byte-identical to ``tests/fingerprint_reference.py`` — for every
encapsulation and composition the standard and corpus registrations
install — and the memo must never hide a change: new code, a
reassigned ``__code__`` or a preset value mutated in place each give a
new fingerprint.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.execution import (DesignEnvironment, encapsulation,
                             fingerprint_callable)
from repro.scenarios import (SHAPES, ScenarioSpec, materialize_scenario,
                             register_corpus_encapsulations)
from repro.schema.standard import odyssey_schema
from repro.tools import install_standard_tools
from tests import fingerprint_reference as reference


def standard_env():
    env = DesignEnvironment(odyssey_schema(), user="tester")
    install_standard_tools(env)
    return env


def corpus_env(shape):
    env = materialize_scenario(ScenarioSpec(f"s-{shape}", shape, seed=3,
                                            width=2, depth=2, fanout=2))
    register_corpus_encapsulations(env)
    return env


def reference_signature(registry, schema) -> str:
    """``EncapsulationRegistry.signature`` over the oracle's digests,
    for a registry without instance-specific encapsulations."""
    fingerprint = reference.encapsulation_fingerprint
    parts = [f"t:{t}:{fingerprint(registry.resolve(t))}"
             for t in registry.registered_types()]
    parts += [f"c:{e.name}:"
              f"{reference.fingerprint_callable(registry.composition(e.name))}"
              for e in schema.entities() if e.composed]
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("make", [standard_env] + [
    (lambda shape=shape: corpus_env(shape)) for shape in SHAPES],
    ids=["standard", *SHAPES])
def test_every_registered_fingerprint_is_unchanged(make):
    env = make()
    registry = env.registry
    assert registry.registered_types()
    for _ in range(2):  # computed, then remembered
        for tool_type in registry.registered_types():
            enc = registry.resolve(tool_type)
            assert enc.fingerprint() == \
                reference.encapsulation_fingerprint(enc)
            assert fingerprint_callable(enc.fn) == \
                reference.fingerprint_callable(enc.fn)
        for entity in env.schema.entities():
            if entity.composed:
                compose = registry.composition(entity.name)
                assert fingerprint_callable(compose) == \
                    reference.fingerprint_callable(compose)
        assert registry.signature() == reference_signature(registry,
                                                           env.schema)


def _defined(source: str, name: str = "tool"):
    namespace = {"__name__": "edited"}
    exec(compile(source, "<edited>", "exec"), namespace)
    return namespace[name]


def test_edited_code_gets_a_new_fingerprint():
    first = _defined("def tool(ctx, inputs):\n    return {'v': 1}\n")
    edited = _defined("def tool(ctx, inputs):\n    return {'v': 2}\n")
    again = _defined("def tool(ctx, inputs):\n    return {'v': 1}\n")
    assert first.__code__ is not again.__code__
    values = [fingerprint_callable(fn) for fn in (first, edited, again)]
    assert values == [reference.fingerprint_callable(fn)
                      for fn in (first, edited, again)]
    assert values[0] != values[1]
    assert values[0] == values[2]  # equal code, equal fingerprint


def test_a_reassigned_code_object_changes_the_fingerprint():
    def tool(ctx, inputs):
        return {"v": 1}

    def other(ctx, inputs):
        return {"v": [1, 2]}

    enc = encapsulation("tool", tool)
    before = (fingerprint_callable(tool), enc.fingerprint())
    tool.__code__ = other.__code__
    after = (fingerprint_callable(tool), enc.fingerprint())
    assert after[0] != before[0] and after[1] != before[1]
    assert after == (reference.fingerprint_callable(tool),
                     reference.encapsulation_fingerprint(enc))


def test_a_preset_mutated_in_place_changes_the_fingerprint():
    def tool(ctx, inputs):
        return {}

    options = {"gain": 1}
    enc = encapsulation("tool", tool, options=options)
    before = enc.fingerprint()
    options["gain"] = 2
    after = enc.fingerprint()
    assert before != after
    assert after == reference.encapsulation_fingerprint(enc)
    assert enc.with_args(options={"gain": 1}).fingerprint() == before


def test_batch_mode_and_code_less_callables():
    def tool(ctx, inputs):
        return {}

    single = encapsulation("tool", tool)
    batched = encapsulation("tool", tool, batch=True)
    assert single.fingerprint() != batched.fingerprint()
    assert batched.fingerprint() == \
        reference.encapsulation_fingerprint(batched)
    for fn in (len, print, dict.get, str):
        assert fingerprint_callable(fn) == reference.fingerprint_callable(fn)
