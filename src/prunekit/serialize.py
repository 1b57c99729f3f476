"""Artifact I/O: the one file writer, the blob codec and the JSON decoder.

Every file prunekit writes goes through ``write_atomic``. A blob is a raw
byte string in its manifest's directory; the manifest names it and records
its SHA-256, which ``read_blob`` checks with the name and the size.
``read_json`` turns malformed manifests, plans and reports into
``ValidationError``.
"""
from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path

from .errors import ValidationError


def canonical_json_bytes(obj) -> bytes:
    """Stable byte encoding used for artifact checksums."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def sha256_hex(data) -> str:
    return hashlib.sha256(data).hexdigest()


def object_sha256(obj) -> str:
    return sha256_hex(canonical_json_bytes(obj))


def write_atomic(path, *chunks) -> None:
    """Write the bytes-like chunks, in order, to a temp file beside path,
    then rename it over path.

    Atomic against readers and against a crash of the process, not of the
    host: nothing is fsynced. The temp file is named from the pid and the
    thread id, so two writers never share one, and is removed if a chunk
    fails. The file gets the mode a plain open gives under the current umask.
    The directory must exist.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(obj, path) -> None:
    write_atomic(path, (json.dumps(obj, indent=2) + "\n").encode("utf-8"))


def read_json(path) -> dict:
    """Decode a JSON object; malformed text or another top-level value is a
    ValidationError."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: top-level JSON value is not an object")
    return obj


def write_blob(directory, name: str, data) -> str:
    """Write one blob next to its manifest; return its SHA-256."""
    write_atomic(Path(directory) / name, data)
    return sha256_hex(data)


def read_blob(directory, name, sha, nbytes: int, label: str) -> bytes:
    """Read the blob a manifest names and check its name, size and hash.

    The name must be a plain file name, so a manifest cannot point outside
    its own directory. label prefixes every message (such as "layer c1:
    weight").
    """
    if (not isinstance(name, str) or name in ("", "..") or "\0" in name
            or Path(name).name != name):
        raise ValidationError(f"{label} blob name {name!r} is not a file name")
    path = Path(directory) / name
    if not path.exists():
        raise FileNotFoundError(f"{label} blob {path} is missing")
    raw = path.read_bytes()
    if len(raw) != nbytes:
        raise ValidationError(f"{label} blob holds {len(raw)} bytes, expected {nbytes}")
    if sha256_hex(raw) != sha:
        raise ValidationError(f"{label} blob checksum mismatch")
    return raw


def conventions() -> dict:
    """Bookkeeping conventions embedded in reports so numbers stay comparable."""
    return {
        "flops_per_multiply_accumulate": 2,
        "param_counts_include_biases": True,
        "weight_pruning_scope": "kernel-only",
        "flatten_order": "row-major (h, w, c)",
        "finetune_defaults": {"optimizer": "sgd", "momentum": 0.9, "batch_size": 32},
    }
