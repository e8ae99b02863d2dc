"""The forward-closure staleness algorithm, kept as a test oracle.

This is the original implementation of
:func:`repro.history.consistency.successor_versions` and
:func:`~repro.history.consistency.stale_inputs`, moved here verbatim
when the library switched to walking the version tree.  It searches
the whole forward closure of an instance and checks every in-family
member's lineage, so it is slow but obviously faithful to the
definition; ``tests/test_consistency_oracle.py`` demands exact
agreement between the two.
"""

from __future__ import annotations

from repro.history.consistency import StaleInput, forward_closure
from repro.history.database import HistoryDatabase
from repro.history.instance import EntityInstance
from repro.history.trace import backward_trace, lineage


def successor_versions(db: HistoryDatabase, instance_id: str
                       ) -> tuple[EntityInstance, ...]:
    """Newer versions of an instance within its entity family.

    A successor is a forward-chained descendant whose version lineage
    passes through the given instance — i.e. it was reached by a chain of
    editing tasks starting from it.  Only the forward closure is walked:
    any instance whose lineage passes through ``instance_id`` is by
    definition forward-reachable from it, so the closure loses no
    candidates while skipping the full trace construction.
    """
    instance = db.get(instance_id)
    family = db.schema.root_of(instance.entity_type)
    out = []
    for other_id in forward_closure(db, instance_id):
        if other_id == instance_id:
            continue
        other = db.get(other_id)
        if not db.schema.is_subtype(other.entity_type, family):
            continue
        if instance_id in lineage(db, other_id, family):
            out.append(other)
    out.sort(key=lambda i: (i.timestamp, i.instance_id))
    return tuple(out)


def stale_inputs(db: HistoryDatabase, instance_id: str
                 ) -> tuple[StaleInput, ...]:
    """Instances in the derivation history that have newer versions.

    Ancestors in the instance's *own* version lineage are exempt: an
    edited netlist is not stale merely because it supersedes its own
    ``previous`` input — superseding it is the purpose of the edit.
    Successor versions whose lineage passes through the instance itself
    are likewise not counted against it.
    """
    own_lineage = set(lineage(db, instance_id))
    trace = backward_trace(db, instance_id)
    in_trace = set(trace.instances())
    out = []
    for used_id in trace.instances():
        if used_id == instance_id or used_id in own_lineage:
            continue
        candidates = [
            s for s in successor_versions(db, used_id)
            if instance_id not in lineage(db, s.instance_id)
            # a successor already inside the derivation means the
            # derivation passes through the newer version: not stale
            and s.instance_id not in in_trace]
        if candidates:
            out.append(StaleInput(used_id, candidates[-1].instance_id))
    return tuple(out)
