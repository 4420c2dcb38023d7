"""Manifold catalog persistence: canonical JSON files, decoding whose errors
name each offending entry, and name resolution with builtin fallback.

A loaded catalog is a dict of entries by name, in file order.  Partition keys
serialize as descending comma-joined integers ("2,1,1"); rationals as
"num/den" strings. Serialization is canonical, so dumping a loaded catalog
reproduces the file byte for byte.
"""

import json
import os

from .errors import GENERA, CatalogError, DomainError, GenusForgeError, InconsistentData, shown
from .manifolds import ManifoldData, _check_manifolds, builtin, partitions_of, s_numbers

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
    return ",".join(map(str, partition))


def _parse_partition(key, entry_name):
    """The partition of a key in the form `_partition_key` writes: int() alone
    also reads " 9", "01", "1_0", "+10" and "١٠", so one partition would have
    many keys."""
    try:
        partition = tuple(map(int, key.split(",")))
        if _partition_key(partition) == key:
            return partition
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
            for kind in GENERA
            if kind in entry.asserted_genera
        }
    return out


def _object(raw, entry_name, fld) -> dict:
    value = raw[fld]
    if not isinstance(value, dict):
        raise CatalogError(f"entry {entry_name!r}: field {fld!r} has wrong type {type(value).__name__}")
    return value


def _parse_numbers(raw, entry_name, fld):
    return {_parse_partition(key, entry_name): value
            for key, value in _object(raw, entry_name, fld).items()}


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
    the values, `_agreeing` the two kinds of numbers; a stored complex_dim must
    be the one ManifoldData works out.  Errors name the entry."""
    if not isinstance(raw, dict):
        raise CatalogError(f"catalog entry must be an object, got {type(raw).__name__}")
    entry_name = raw.get("name", "<unnamed>")
    unknown = set(raw) - set(_ENTRY_FIELDS)
    if unknown:
        raise CatalogError(f"entry {entry_name!r}: unknown field(s) {sorted(unknown)}")
    for fld in _REQUIRED_FIELDS:
        if fld not in raw:
            raise CatalogError(f"entry {entry_name!r}: missing required field {fld!r}")

    fields = {fld: raw[fld] for fld in _REQUIRED_FIELDS}
    for fld in ("chern_numbers", "pontryagin_numbers"):
        if fld in raw:
            fields[fld] = _parse_numbers(raw, entry_name, fld)
    if "asserted" in raw:
        fields["asserted_genera"] = asserted = _object(raw, entry_name, "asserted")
        for kind, text in asserted.items():
            if not isinstance(text, str):
                raise CatalogError(f"entry {entry_name!r}: asserted[{kind!r}] must be a 'num/den' string")
    try:
        entry = _agreeing(ManifoldData(**fields))
    except GenusForgeError as exc:
        raise CatalogError(f"entry {entry_name!r}: {exc}") from exc
    if "complex_dim" in raw:
        stored, derived = raw["complex_dim"], entry.complex_dim
        if type(stored) is not type(derived) or stored != derived:
            raise CatalogError(f"entry {entry_name!r}: complex_dim {shown(stored)} must be " + (
                "absent without Chern numbers" if derived is None else f"real_dim/2 = {derived}"))
    return entry


def document(catalog: dict[str, ManifoldData]) -> dict:
    """The JSON object of a catalog's file, as `catalog list --json` prints it."""
    return {"schema_version": SCHEMA_VERSION,
            "entries": [entry_to_dict(entry) for entry in catalog.values()]}


def dumps_catalog(entries: list) -> str:
    """Canonical file text of a list of entries."""
    return json.dumps(document(_by_name(entries)), indent=2) + "\n"


def load_default_catalog() -> dict[str, ManifoldData]:
    """Catalog from GENUS_FORGE_CATALOG if set, else the packaged file."""
    path = os.environ.get(ENV_CATALOG_PATH) or _PACKAGED
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:  # before the ValueError clause below
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CatalogError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # a huge integer, deep nesting
        raise CatalogError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise CatalogError(f"{path}: top level must be an object")
    unknown = set(raw) - {"schema_version", "entries"}
    if unknown:
        raise CatalogError(f"{path}: unknown top-level field(s) {sorted(unknown)}")
    version = raw.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # true and 1.0 equal 1
        raise CatalogError(f"{path}: unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    entries_raw = raw.get("entries")
    if not isinstance(entries_raw, list):
        raise CatalogError(f"{path}: 'entries' must be a list")
    return _by_name([entry_from_dict(item) for item in entries_raw])


def resolve(name: str) -> ManifoldData:
    """Default-catalog entry by name, falling back to the always-available builtins."""
    catalog = load_default_catalog()
    if isinstance(name, str) and name in catalog:  # builtin refuses a name that is not a str
        return catalog[name]
    return builtin(name)
