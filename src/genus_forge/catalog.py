"""Manifold catalog persistence: canonical JSON files, decoding whose errors
name each offending entry, and name resolution with builtin fallback.

Partition keys serialize as descending comma-joined integers ("2,1,1");
rationals as "num/den" strings. Serialization is canonical, so saving a loaded
catalog reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import os

from .errors import CatalogError, GenusForgeError, Record, UnknownManifold
from .manifolds import GenusKind, ManifoldData, builtin

__all__ = [
    "SCHEMA_VERSION",
    "ENV_CATALOG_PATH",
    "CatalogFile",
    "entry_to_dict",
    "entry_from_dict",
    "dumps_catalog",
    "loads_catalog",
    "load_catalog",
    "save_catalog",
    "load_default_catalog",
    "resolve",
]

SCHEMA_VERSION = 1
ENV_CATALOG_PATH = "GENUS_FORGE_CATALOG"
_PACKAGED = os.path.join(os.path.dirname(__file__), "data", "default_catalog.json")

_ENTRY_FIELDS = (
    "name",
    "real_dim",
    "complex_dim",
    "chern_numbers",
    "pontryagin_numbers",
    "spin",
    "string",
    "asserted",
)
_REQUIRED_FIELDS = ("name", "real_dim", "spin", "string")
_GENUS_ORDER = tuple(kind.value for kind in GenusKind)


class CatalogFile(Record):
    def __init__(self, entries: list | None = None, schema_version: int = SCHEMA_VERSION):
        self._set(entries=[] if entries is None else entries, schema_version=schema_version)

    def names(self):
        return [entry.name for entry in self.entries]

    def get(self, name: str) -> ManifoldData | None:
        for entry in self.entries:
            if entry.name == name:
                return entry
        return None


def _partition_key(partition) -> str:
    return ",".join(str(part) for part in partition)


def _parse_partition(key, entry_name):
    try:
        return tuple(int(piece) for piece in key.split(","))
    except (AttributeError, ValueError):  # not a string of comma-separated integers
        raise CatalogError(f"entry {entry_name!r}: malformed partition key {key!r}") from None


def _numbers_to_json(numbers):
    # descending partition order keeps the file canonical and diff-friendly
    return {_partition_key(part): numbers[part] for part in sorted(numbers, reverse=True)}


def entry_to_dict(entry: ManifoldData) -> dict:
    """Canonical JSON object for one entry; absent optional fields are omitted."""
    out = {"name": entry.name, "real_dim": entry.real_dim}
    if entry.complex_dim is not None:
        out["complex_dim"] = entry.complex_dim
    if entry.chern_numbers is not None:
        out["chern_numbers"] = _numbers_to_json(entry.chern_numbers)
    if entry.pontryagin_numbers is not None:
        out["pontryagin_numbers"] = _numbers_to_json(entry.pontryagin_numbers)
    out["spin"] = entry.spin
    out["string"] = entry.string
    if entry.asserted_genera:
        out["asserted"] = {
            kind: str(entry.asserted_genera[kind])
            for kind in _GENUS_ORDER
            if kind in entry.asserted_genera
        }
    return out


def _object(raw, entry_name, fld) -> dict:
    value = raw[fld]
    if not isinstance(value, dict):
        raise CatalogError(f"entry {entry_name!r}: field {fld!r} has wrong type {type(value).__name__}")
    return value


def _parse_numbers(raw, entry_name, fld):
    numbers = {}
    for key, value in _object(raw, entry_name, fld).items():
        partition = _parse_partition(key, entry_name)
        # "2,1" and "2, 1" both decode to (2, 1); the constructor sees only one
        if partition in numbers:
            raise CatalogError(f"entry {entry_name!r}: duplicate partition {key!r} in {fld}")
        numbers[partition] = value
    return numbers


def entry_from_dict(raw) -> ManifoldData:
    """Decode one JSON entry object into manifold data.  ManifoldData validates
    the values; its errors come back naming the entry."""
    if not isinstance(raw, dict):
        raise CatalogError(f"catalog entry must be an object, got {type(raw).__name__}")
    entry_name = raw.get("name", "<unnamed>")
    unknown = set(raw) - set(_ENTRY_FIELDS)
    if unknown:
        raise CatalogError(f"entry {entry_name!r}: unknown field(s) {sorted(unknown)}")
    for fld in _REQUIRED_FIELDS:
        if fld not in raw:
            raise CatalogError(f"entry {entry_name!r}: missing required field {fld!r}")

    fields = {fld: raw[fld] for fld in ("name", "real_dim", "complex_dim", "spin", "string")
              if fld in raw}
    for fld in ("chern_numbers", "pontryagin_numbers"):
        if fld in raw:
            fields[fld] = _parse_numbers(raw, entry_name, fld)
    if "asserted" in raw:
        fields["asserted_genera"] = asserted = _object(raw, entry_name, "asserted")
        for kind, text in asserted.items():
            if not isinstance(text, str):
                raise CatalogError(f"entry {entry_name!r}: asserted[{kind!r}] must be a 'num/den' string")
    try:
        return ManifoldData(**fields)
    except GenusForgeError as exc:
        raise CatalogError(f"entry {entry_name!r}: {exc}") from exc


def dumps_catalog(catalog: CatalogFile) -> str:
    payload = {
        "schema_version": catalog.schema_version,
        "entries": [entry_to_dict(entry) for entry in catalog.entries],
    }
    return json.dumps(payload, indent=2) + "\n"


def loads_catalog(text: str, source: str = "<string>") -> CatalogFile:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(
            f"invalid JSON in {source} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # a huge integer, deep nesting
        raise CatalogError(f"invalid JSON in {source}: {exc}") from None
    if not isinstance(raw, dict):
        raise CatalogError(f"{source}: top level must be an object")
    unknown = set(raw) - {"schema_version", "entries"}
    if unknown:
        raise CatalogError(f"{source}: unknown top-level field(s) {sorted(unknown)}")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise CatalogError(f"{source}: unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    entries_raw = raw.get("entries")
    if not isinstance(entries_raw, list):
        raise CatalogError(f"{source}: 'entries' must be a list")
    entries = [entry_from_dict(item) for item in entries_raw]
    seen = set()
    for entry in entries:
        if entry.name in seen:
            raise CatalogError(f"duplicate entry name {entry.name!r}")
        seen.add(entry.name)
    return CatalogFile(entries=entries, schema_version=version)


def load_catalog(path) -> CatalogFile:
    try:
        # fspath here and in save_catalog: open() would take an int as a file descriptor
        with open(os.fspath(path), encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
    return loads_catalog(text, source=str(path))


def save_catalog(catalog: CatalogFile, path) -> None:
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write(dumps_catalog(catalog))


def load_default_catalog() -> CatalogFile:
    """Catalog from GENUS_FORGE_CATALOG if set, else the packaged file."""
    return load_catalog(os.environ.get(ENV_CATALOG_PATH) or _PACKAGED)


def resolve(name: str, catalog: CatalogFile | None = None) -> ManifoldData:
    """Entry by name, falling back to the always-available builtins."""
    if catalog is None:
        catalog = load_default_catalog()
    entry = catalog.get(name)
    if entry is not None:
        return entry
    try:
        return builtin(name)
    except UnknownManifold:
        raise UnknownManifold(
            f"{name!r} is neither a catalog entry nor a builtin "
            "(builtins: CPn, Sn, Tn, K3, HP2)"
        ) from None
