"""Manifold catalog persistence: canonical JSON files, decoding whose errors
name each offending entry, and name resolution with builtin fallback.

A loaded catalog is a dict of entries by name, in file order.  Partition keys
serialize as descending comma-joined integers ("2,1,1"); rationals as
"num/den" strings. Serialization is canonical, so dumping a loaded catalog
reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import os

from .errors import (CatalogError, DomainError, GenusForgeError, InconsistentData,
                     UnknownManifold, shown)
from .manifolds import GenusKind, ManifoldData, _check_manifolds, builtin, partitions_of, s_numbers

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
# a partition key is ASCII digits, commas and spaces: int() alone also reads "1_0", "+10", "١٠"
_KEY_CHARS = frozenset("0123456789, \t\n\r\v\f")


def _by_name(entries: list) -> dict[str, ManifoldData]:
    """The catalog of a list of entries: the one refusal of an entry that is
    not ManifoldData and of a repeated name, for the reader and the writer."""
    if not isinstance(entries, list):
        raise DomainError(f"entries must be a list of ManifoldData, got {shown(entries)}")
    _check_manifolds(*entries)
    catalog = {}
    for entry in entries:
        if entry.name in catalog:
            raise CatalogError(f"duplicate entry name {entry.name!r}")
        catalog[entry.name] = entry
    return catalog


def _partition_key(partition) -> str:
    return ",".join(str(part) for part in partition)


def _parse_partition(key, entry_name):
    try:
        if _KEY_CHARS.issuperset(key):
            return tuple(int(piece) for piece in key.split(","))
    except (AttributeError, TypeError, ValueError):  # not a str; "1 0"; past 4,300 digits
        pass
    raise CatalogError(f"entry {entry_name!r}: malformed partition key {key!r}")


def _numbers_to_json(numbers):
    # descending partition order keeps the file canonical and diff-friendly
    return {_partition_key(part): numbers[part] for part in sorted(numbers, reverse=True)}


def entry_to_dict(entry: ManifoldData) -> dict:
    """Canonical JSON object for one entry; absent optional fields are omitted."""
    _check_manifolds(entry)
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


def _agreeing(entry: ManifoldData) -> ManifoldData:
    """Todd reads the Chern numbers and the other genera the Pontryagin
    numbers, so an entry storing both must have s^pont_mu = s^chern_2mu."""
    chern, pont = entry.chern_numbers, entry.pontryagin_numbers
    if chern is not None and pont is not None and entry.real_dim % 4 == 0:
        for mu, s in s_numbers(pont, partitions_of(entry.real_dim // 4)).items():
            doubled = tuple(2 * part for part in mu)
            t = s_numbers(chern, [doubled])[doubled]
            if s != t:
                raise InconsistentData(f"Chern and Pontryagin numbers disagree at {mu}: "
                                       f"power sum {t} from Chern, {s} from Pontryagin")
    return entry


def entry_from_dict(raw) -> ManifoldData:
    """Decode one JSON entry object into manifold data.  ManifoldData validates
    the values, `_agreeing` the two kinds of numbers; errors name the entry."""
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
        return _agreeing(ManifoldData(**fields))
    except GenusForgeError as exc:
        raise CatalogError(f"entry {entry_name!r}: {exc}") from exc


def document(catalog: dict[str, ManifoldData]) -> dict:
    """The JSON object of a catalog's file, as `catalog list --json` prints it."""
    return {"schema_version": SCHEMA_VERSION,
            "entries": [entry_to_dict(entry) for entry in catalog.values()]}


def dumps_catalog(entries: list) -> str:
    """Canonical file text of a list of entries."""
    return json.dumps(document(_by_name(entries)), indent=2) + "\n"


def loads_catalog(text: str, source: str = "<string>") -> dict[str, ManifoldData]:
    if not isinstance(source, str):  # only named in messages
        source = shown(source)
    if not isinstance(text, (str, bytes, bytearray)):  # what json.loads decodes
        raise CatalogError(f"{source}: catalog text must be a str or bytes, got {shown(text)}")
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
    if type(version) is not int or version != SCHEMA_VERSION:  # true and 1.0 equal 1
        raise CatalogError(f"{source}: unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    entries_raw = raw.get("entries")
    if not isinstance(entries_raw, list):
        raise CatalogError(f"{source}: 'entries' must be a list")
    return _by_name([entry_from_dict(item) for item in entries_raw])


def _fspath(path):
    if not isinstance(path, (str, bytes, os.PathLike)):  # what os.fspath takes
        raise CatalogError(f"a catalog path must be a str or a path, got {shown(path)}")
    return os.fspath(path)  # open() would take an int as a file descriptor


def load_catalog(path) -> dict[str, ManifoldData]:
    try:
        with open(_fspath(path), encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
    return loads_catalog(text, source=str(path))


def load_default_catalog() -> dict[str, ManifoldData]:
    """Catalog from GENUS_FORGE_CATALOG if set, else the packaged file."""
    return load_catalog(os.environ.get(ENV_CATALOG_PATH) or _PACKAGED)


def resolve(name: str, catalog: dict[str, ManifoldData] | None = None) -> ManifoldData:
    """Entry by name, falling back to the always-available builtins."""
    if catalog is None:
        catalog = load_default_catalog()
    elif not isinstance(catalog, dict):
        raise DomainError(f"catalog must be a dict of entries by name, got {shown(catalog)}")
    if isinstance(name, str) and name in catalog:  # builtin refuses a name that is not a str
        return catalog[name]
    try:
        return builtin(name)
    except UnknownManifold:
        raise UnknownManifold(
            f"{name!r} is neither a catalog entry nor a builtin "
            "(builtins: CPn, Sn, Tn, K3, HP2)"
        ) from None
