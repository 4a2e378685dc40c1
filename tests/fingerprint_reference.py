"""Structural-walk reference for the content identity of a payload.

This is the derivation cache's original fingerprint: a sha1 fed by a
recursive walk that names each dataclass and its fields, sorts dict keys
and set members by ``repr``, and hashes every other leaf by its ``repr``.
It is the oracle for ``test_identity_differential``: the chunk address that
replaced it must split payloads into the same classes, so a memo lookup
hits and misses exactly where it did.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from typing import Any


def _stable_hash(payload: Any, digest: "hashlib._Hash") -> None:
    """Feed a stable, structure-aware serialization of ``payload``."""
    if is_dataclass(payload) and not isinstance(payload, type):
        digest.update(b"D" + type(payload).__name__.encode())
        for f in fields(payload):
            digest.update(f.name.encode())
            _stable_hash(getattr(payload, f.name), digest)
    elif isinstance(payload, dict):
        digest.update(b"M")
        for key in sorted(payload, key=repr):
            _stable_hash(key, digest)
            _stable_hash(payload[key], digest)
    elif isinstance(payload, (list, tuple)):
        digest.update(b"L")
        for item in payload:
            _stable_hash(item, digest)
    elif isinstance(payload, (set, frozenset)):
        digest.update(b"S")
        for item in sorted(payload, key=repr):
            _stable_hash(item, digest)
    elif isinstance(payload, bytes):
        digest.update(b"B" + payload)
    else:
        digest.update(repr(payload).encode())


def fingerprint(payload: Any) -> str:
    """Content hash of one payload by the structural walk."""
    digest = hashlib.sha1()
    _stable_hash(payload, digest)
    return digest.hexdigest()
