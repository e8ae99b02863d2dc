"""Content-addressed storage for design data.

Paper footnote 5: *"although each instance of an entity (including
different versions of the same design) has its own associated meta-data,
it may share the actual (physical) data with other instances."*  A
:class:`DataStore` is the reproduction's RCS/SCCS: blobs are keyed by a
digest of their canonical form, so identical payloads are stored once and
instances reference them by ``data_ref``.  The blobs themselves live in
a :class:`~repro.history.store.HistoryStore`; the data store adds the
codecs and a decode cache.

Arbitrary Python design objects (netlists, layouts, compiled simulators)
participate through a :class:`CodecRegistry`: each class registers a type
tag plus ``to_payload``/``from_payload`` functions mapping to JSON-safe
structures.  Primitives, lists, dicts and tuples need no registration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import HistoryError
from .store import InMemoryHistoryStore


@dataclass(frozen=True)
class Codec:
    """Serialization recipe for one design-data class."""

    tag: str
    cls: type
    to_payload: Callable[[Any], Any]
    from_payload: Callable[[Any], Any]


class CodecRegistry:
    """Maps classes/tags to codecs; shared by datastore persistence."""

    def __init__(self) -> None:
        self._by_tag: dict[str, Codec] = {}
        self._by_cls: dict[type, Codec] = {}

    def register(self, tag: str, cls: type,
                 to_payload: Callable[[Any], Any],
                 from_payload: Callable[[Any], Any]) -> None:
        if tag in self._by_tag:
            raise HistoryError(f"codec tag {tag!r} already registered")
        if cls in self._by_cls:
            raise HistoryError(f"codec for {cls.__name__} already registered")
        codec = Codec(tag, cls, to_payload, from_payload)
        self._by_tag[tag] = codec
        self._by_cls[cls] = codec

    def register_dataclass_like(self, tag: str, cls: type) -> None:
        """Register a class exposing ``to_dict()`` and ``from_dict()``."""
        self.register(tag, cls,
                      to_payload=lambda obj: obj.to_dict(),
                      from_payload=cls.from_dict)

    def encode(self, obj: Any) -> Any:
        """Convert an object to a JSON-safe tagged structure."""
        if obj is None or isinstance(obj, (bool, int, float, str)):
            return obj
        if isinstance(obj, (list, tuple)):
            return {"__seq__": "tuple" if isinstance(obj, tuple) else "list",
                    "items": [self.encode(item) for item in obj]}
        if isinstance(obj, dict):
            return {"__map__": [[self.encode(k), self.encode(v)]
                                for k, v in obj.items()]}
        codec = self._by_cls.get(type(obj))
        if codec is None:
            raise HistoryError(
                f"no codec registered for {type(obj).__name__}; call "
                "CodecRegistry.register() (or register_dataclass_like)")
        return {"__tag__": codec.tag,
                "payload": self.encode(codec.to_payload(obj))}

    def decode(self, payload: Any) -> Any:
        """Inverse of :meth:`encode`."""
        if payload is None or isinstance(payload, (bool, int, float, str)):
            return payload
        if isinstance(payload, list):
            return [self.decode(item) for item in payload]
        if isinstance(payload, dict):
            if "__seq__" in payload:
                items = [self.decode(item) for item in payload["items"]]
                return tuple(items) if payload["__seq__"] == "tuple" \
                    else items
            if "__map__" in payload:
                return {self.decode(k): self.decode(v)
                        for k, v in payload["__map__"]}
            if "__tag__" in payload:
                codec = self._by_tag.get(payload["__tag__"])
                if codec is None:
                    raise HistoryError(
                        f"no codec for tag {payload['__tag__']!r}")
                return codec.from_payload(self.decode(payload["payload"]))
        raise HistoryError(f"cannot decode payload of type "
                           f"{type(payload).__name__}")


#: Registry shared by default; tools register their data classes here at
#: import time.
GLOBAL_CODECS = CodecRegistry()


#: Length histories written before full-digest storage used for refs.
SHORT_REF_LENGTH = 16


class DataStore:
    """Codecs plus a decode cache over a store's content-addressed blobs.

    Blobs are keyed by the **full** sha256 hex digest of their canonical
    form and kept, as canonical JSON text with their size, in
    ``backend`` (a fresh
    :class:`~repro.history.store.InMemoryHistoryStore` by default).
    Earlier histories truncated digests to 16 hex characters; those
    short refs still resolve through the store's alias table, but new
    refs are always full-length so downstream users (derivation cache
    keys in particular) cannot collide.

    Decoded objects are cached for the session, so :meth:`get` returns
    the very object :meth:`put` stored, and a loaded blob is decoded
    on its first :meth:`get` only.  Resolved refs and blob sizes are
    memoised too, but only answers that found a blob: blobs are
    content-addressed and never deleted, so such an answer never
    changes.
    """

    def __init__(self, codecs: CodecRegistry | None = None, *,
                 backend=None) -> None:
        self.codecs = codecs if codecs is not None else GLOBAL_CODECS
        self.backend = (backend if backend is not None
                        else InMemoryHistoryStore())
        self._decoded: dict[str, Any] = {}
        #: ref -> full digest, and full digest -> size, of found blobs
        self._resolved: dict[str, str] = {}
        self._sizes: dict[str, int] = {}

    def _canonical(self, encoded: Any) -> str:
        return json.dumps(encoded, sort_keys=True, separators=(",", ":"))

    def _admit(self, canonical: str) -> str:
        """Store canonical text under its digest; return the digest."""
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        self.backend.put_blob(digest, canonical, len(canonical))
        self.backend.put_blob_alias(digest[:SHORT_REF_LENGTH], digest)
        return digest

    def put(self, obj: Any) -> str:
        """Store an object; return its content digest (``data_ref``)."""
        digest = self._admit(self._canonical(self.codecs.encode(obj)))
        self._decoded.setdefault(digest, obj)
        return digest

    def _blob_size(self, digest: str) -> int | None:
        size = self._sizes.get(digest)
        if size is None:
            size = self.backend.blob_size(digest)
            if size is not None:
                self._sizes[digest] = size
        return size

    def _full(self, data_ref: str) -> str | None:
        full = self._resolved.get(data_ref)
        if full is None:
            if data_ref in self._decoded \
                    or self._blob_size(data_ref) is not None:
                full = data_ref
            else:
                full = self.backend.resolve_blob_alias(data_ref)
            if full is not None:
                self._resolved[data_ref] = full
        return full

    def resolve(self, data_ref: str) -> str:
        """Map a (possibly legacy short) ref to its full digest."""
        full = self._full(data_ref)
        if full is None:
            raise HistoryError(f"no data blob {data_ref!r}")
        return full

    def get(self, data_ref: str) -> Any:
        full = self.resolve(data_ref)
        if full not in self._decoded:
            canonical = self.backend.get_blob(full)
            if canonical is None:
                raise HistoryError(f"no data blob {data_ref!r}")
            self._decoded[full] = self.codecs.decode(json.loads(canonical))
        return self._decoded[full]

    def size(self, data_ref: str) -> int:
        """Canonical-form byte size of a stored blob."""
        return self._blob_size(self.resolve(data_ref))

    def __contains__(self, data_ref: str) -> bool:
        return self._full(data_ref) is not None

    def __len__(self) -> int:
        return len(self.backend.blob_refs())

    def refs(self) -> tuple[str, ...]:
        return self.backend.blob_refs()

    # -- persistence -----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {ref: json.loads(self.backend.get_blob(ref))
                for ref in self.backend.blob_refs()}

    def load_dict(self, payload: dict[str, Any]) -> None:
        for ref, encoded in payload.items():
            digest = self._admit(self._canonical(encoded))
            # refs recorded by truncating builds keep resolving
            if ref != digest:
                self.backend.put_blob_alias(ref, digest)
