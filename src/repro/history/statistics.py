"""Management statistics over the design history database.

The meta-data the paper stores per instance (user, time-stamp,
derivation) supports more than queries — it describes the design
process itself.  :func:`history_statistics` aggregates it into the kind
of report a project lead (or the Design Process Level) reads: who made
what, which tools carry the load, how deep derivations run, and how much
physical data the content-addressed store actually deduplicated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dag import longest, topological
from .database import HistoryDatabase
from .trace import backward_trace


@dataclass
class HistoryStatistics:
    """Aggregated view of one history database."""

    instances: int = 0
    derived: int = 0
    installed: int = 0
    blobs: int = 0
    instances_by_type: dict[str, int] = field(default_factory=dict)
    instances_by_user: dict[str, int] = field(default_factory=dict)
    tool_runs: dict[str, int] = field(default_factory=dict)
    max_depth: int = 0
    mean_depth: float = 0.0
    shared_blob_instances: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Data-carrying instances per stored blob (>= 1)."""
        carriers = self.instances - self._no_data
        return carriers / self.blobs if self.blobs else 1.0

    _no_data: int = 0

    def to_dict(self) -> dict:
        """Machine-readable form (the ``repro stats --json`` payload)."""
        return {
            "instances": self.instances,
            "derived": self.derived,
            "installed": self.installed,
            "blobs": self.blobs,
            "dedup_ratio": self.dedup_ratio,
            "instances_by_type": dict(sorted(
                self.instances_by_type.items())),
            "instances_by_user": dict(sorted(
                self.instances_by_user.items())),
            "tool_runs": dict(sorted(self.tool_runs.items())),
            "max_depth": self.max_depth,
            "mean_depth": self.mean_depth,
            "shared_blob_instances": self.shared_blob_instances,
        }

    def render(self) -> str:
        lines = [
            "history statistics:",
            f"  instances: {self.instances} "
            f"({self.derived} derived, {self.installed} installed)",
            f"  physical blobs: {self.blobs} "
            f"(dedup ratio {self.dedup_ratio:.2f}, "
            f"{self.shared_blob_instances} instances share a blob)",
            f"  derivation depth: max {self.max_depth}, "
            f"mean {self.mean_depth:.1f}",
        ]
        if self.instances_by_user:
            lines.append("  by user: " + ", ".join(
                f"{user or '(none)'}={count}" for user, count in
                sorted(self.instances_by_user.items())))
        if self.tool_runs:
            top = sorted(self.tool_runs.items(),
                         key=lambda kv: (-kv[1], kv[0]))[:8]
            lines.append("  busiest tools: " + ", ".join(
                f"{tool}={count}" for tool, count in top))
        busiest_types = sorted(self.instances_by_type.items(),
                               key=lambda kv: (-kv[1], kv[0]))[:8]
        if busiest_types:
            lines.append("  largest types: " + ", ".join(
                f"{name}={count}" for name, count in busiest_types))
        return "\n".join(lines)


def derivation_depth(db: HistoryDatabase, instance_id: str) -> int:
    """Longest derivation chain below an instance (0 for installed)."""
    return _depths(db.get, (instance_id,))[instance_id][0]


def _depths(get, ids) -> dict[str, tuple[int, str | None]]:
    """:func:`repro.dag.longest` over the derivations below ``ids``,
    reading instances with ``get``: each length is a depth."""
    def antecedents(current: str) -> tuple[str, ...]:
        derivation = get(current).derivation
        return () if derivation is None else derivation.all_antecedents()

    return longest(topological(ids, antecedents), antecedents,
                   lambda current: int(get(current).derivation is not None))


def history_statistics(db: HistoryDatabase) -> HistoryStatistics:
    """Aggregate the whole database into a report."""
    stats = HistoryStatistics()
    blob_users: dict[str, int] = {}
    depths = []
    instances = db.instances()
    recorded = {instance.instance_id: instance for instance in instances}
    chains = _depths(lambda current: recorded.get(current)
                     or db.get(current), recorded)
    for instance in instances:
        stats.instances += 1
        stats.instances_by_type[instance.entity_type] = \
            stats.instances_by_type.get(instance.entity_type, 0) + 1
        stats.instances_by_user[instance.user] = \
            stats.instances_by_user.get(instance.user, 0) + 1
        if instance.derivation is None:
            stats.installed += 1
        else:
            stats.derived += 1
            if instance.derivation.tool is not None:
                tool = db.get(instance.derivation.tool)
                key = tool.name or tool.entity_type
                stats.tool_runs[key] = stats.tool_runs.get(key, 0) + 1
            depths.append(chains[instance.instance_id][0])
        if instance.data_ref is None:
            stats._no_data += 1
        else:
            blob_users[instance.data_ref] = \
                blob_users.get(instance.data_ref, 0) + 1
    stats.blobs = len(db.datastore)
    stats.shared_blob_instances = sum(
        count for count in blob_users.values() if count > 1)
    if depths:
        stats.max_depth = max(depths)
        stats.mean_depth = sum(depths) / len(depths)
    return stats


def trace_size(db: HistoryDatabase, instance_id: str) -> int:
    """Convenience: number of instances in the full derivation trace."""
    return len(backward_trace(db, instance_id))
