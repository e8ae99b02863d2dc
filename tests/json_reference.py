"""The two-pass JSON encoder obs used before ``render_json`` became one
``json.dumps``.

``to_jsonable`` rebuilt every dict and list of a payload (dataclasses,
tuples and sets included) before ``render_json`` encoded it; both are
kept here verbatim as the oracle for :func:`repro.obs.render_json`.
``tests/test_obs_encoding.py`` demands byte-identical lines from both
for a payload from every caller.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any


def to_jsonable(value: Any) -> Any:
    """Recursively convert dataclasses/tuples into JSON-ready values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {name: to_jsonable(item)
                for name, item in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(key): to_jsonable(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(item) for item in value]
    return value


def render_json(payload: Any) -> str:
    """Canonical single-line JSON used by every machine-readable output."""
    return json.dumps(to_jsonable(payload), sort_keys=True)
