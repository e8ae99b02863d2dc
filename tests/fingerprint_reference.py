"""Code fingerprints computed afresh on every call, kept as a test oracle.

These are :func:`repro.execution.encapsulation.fingerprint_callable`
and :meth:`~repro.execution.encapsulation.ToolEncapsulation.fingerprint`
as they were before the library memoised them by the values they
hash; ``tests/test_fingerprint_memo.py`` demands byte-identical
results, since derivation keys, saved memos and procpool envelopes all
carry these digests.
"""

from __future__ import annotations

import hashlib
import json
import types
from typing import Any, Callable


def _const_token(value: Any) -> str:
    if isinstance(value, types.CodeType):
        inner = ",".join(_const_token(c) for c in value.co_consts)
        return ("code:"
                + hashlib.sha256(value.co_code).hexdigest()
                + ":" + inner)
    return repr(value)


def fingerprint_callable(fn: Callable[..., Any]) -> str:
    parts = [getattr(fn, "__module__", "") or "",
             getattr(fn, "__qualname__", repr(fn))]
    code = getattr(fn, "__code__", None)
    if code is not None:
        parts.append(hashlib.sha256(code.co_code).hexdigest())
        parts.append(",".join(_const_token(c) for c in code.co_consts))
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


def encapsulation_fingerprint(encapsulation) -> str:
    spec = json.dumps(
        {"fn": fingerprint_callable(encapsulation.fn),
         "batch": encapsulation.batch,
         "preset": [[k, repr(v)] for k, v in encapsulation.preset_args]},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(spec.encode("utf-8")).hexdigest()
