"""Catalog JSON contract: canonical serialization, field validation with
named entries in every message, environment override, and name resolution."""

import json
import re
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from genus_forge.catalog import (
    ENV_CATALOG_PATH,
    SCHEMA_VERSION,
    document,
    dumps_catalog,
    entry_from_dict,
    entry_to_dict,
    load_default_catalog,
    resolve,
)
from genus_forge.cli import main
from genus_forge.errors import CatalogError, DomainError, UnknownManifold
from genus_forge.genera import genus_value
from genus_forge.manifolds import ManifoldData, cp, hp2, k3

# the builder serves only the regeneration script, so it lives there
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from regen_catalog import build_default_catalog  # noqa: E402

ALL_NAMES = [
    "T2", "T4", "S4", "S6", "K3", "HP2", "CP2", "CP3", "CP4", "B8", "W24",
    "T2xS6", "T2xS6_sharp_B8", "T2xS6_sharp_HP2", "K3xK3", "T4xK3",
    "K3xHP2", "HP2xHP2",
]


def _packaged_text() -> str:
    return (
        resources.files("genus_forge").joinpath("data/default_catalog.json").read_text()
    )


@pytest.fixture
def user_catalog(tmp_path, monkeypatch):
    """The file GENUS_FORGE_CATALOG names: `_load` writes it and reads it back."""
    path = tmp_path / "cat.json"
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
    return path


def _load(path, text):
    path.write_text(text)
    return load_default_catalog()


def test_shipped_catalog_round_trips_byte_identical():
    text = _packaged_text()
    catalog = load_default_catalog()
    assert dumps_catalog(list(catalog.values())) == text
    assert json.dumps(document(catalog), indent=2) + "\n" == text


def test_shipped_catalog_contents():
    cat = load_default_catalog()
    # a plain dict of entries by name, in file order
    assert type(cat) is dict and list(cat) == ALL_NAMES
    assert all(entry.name == name for name, entry in cat.items())
    assert cat["K3"].chern_numbers == {(2,): 24}
    assert cat["HP2"].pontryagin_numbers == {(1, 1): 4, (2,): 7}
    sharp = cat["T2xS6_sharp_B8"]
    assert sharp.asserted_genera == {"ahat": Fraction(1)}
    assert cat["W24"].real_dim == 24 and cat["W24"].string
    assert "nope" not in cat


def test_shipped_catalog_matches_builder():
    assert dumps_catalog(build_default_catalog()) == _packaged_text()


def test_entry_round_trip(user_catalog):
    # an empty asserted map is no asserted genus, which the file omits
    for entry in (k3(), ManifoldData("X", 4, pontryagin_numbers={(1,): 3}, asserted_genera={})):
        redone = entry_from_dict(json.loads(json.dumps(entry_to_dict(entry))))
        assert redone == entry
        assert _load(user_catalog, dumps_catalog([entry]))[entry.name] == entry


def test_entry_to_dict_canonical_order():
    d = entry_to_dict(k3())
    assert list(d) == ["name", "real_dim", "complex_dim", "chern_numbers",
                       "pontryagin_numbers", "spin", "string"]
    # descending partition keys
    hp2_like = ManifoldData(name="Q", real_dim=8,
                            pontryagin_numbers={(2,): 7, (1, 1): 4})
    assert list(entry_to_dict(hp2_like)["pontryagin_numbers"]) == ["2", "1,1"]


def _base_entry(**overrides):
    raw = {
        "name": "E",
        "real_dim": 4,
        "spin": True,
        "string": False,
        "pontryagin_numbers": {"1": -48},
    }
    raw.update(overrides)
    return raw


def test_entry_validation_messages():
    with pytest.raises(CatalogError, match="unknown field"):
        entry_from_dict(_base_entry(flavour="odd"))
    with pytest.raises(CatalogError, match="missing required field"):
        entry_from_dict({"name": "E", "real_dim": 4, "spin": True})
    with pytest.raises(CatalogError, match="wrong type"):
        entry_from_dict(_base_entry(real_dim="four"))
    with pytest.raises(CatalogError, match="wrong type"):
        entry_from_dict(_base_entry(spin=1))  # bool field, int given
    with pytest.raises(CatalogError, match="wrong type"):
        entry_from_dict(_base_entry(real_dim=True))  # int field, bool given
    with pytest.raises(CatalogError, match="partition"):
        entry_from_dict(_base_entry(pontryagin_numbers={"zero": 1}))
    # key characters that int() still refuses, and a key that is not a str
    with pytest.raises(CatalogError, match="^entry 'E': malformed partition key '1 0'$"):
        entry_from_dict(_base_entry(pontryagin_numbers={"1 0": 1}))
    with pytest.raises(CatalogError, match="^entry 'E': malformed partition key 1$"):
        entry_from_dict(_base_entry(pontryagin_numbers={1: 1}))
    with pytest.raises(CatalogError, match="field 'pontryagin_numbers' has wrong type list"):
        entry_from_dict(_base_entry(pontryagin_numbers=[["1", 1]]))
    with pytest.raises(CatalogError, match=r"\(2, 1\) sums to 3"):
        # partition weight 3 > available weight, named in the message
        entry_from_dict(_base_entry(pontryagin_numbers={"2,1": 5}))
    with pytest.raises(CatalogError, match="^entry 'E': malformed partition key '1, 1'$"):
        # (1, 1) has one key, "1,1": a second spelling is refused, even with an equal value
        entry_from_dict(_base_entry(real_dim=8, pontryagin_numbers={"1,1": 4, "1, 1": 4}))
    with pytest.raises(CatalogError, match="unknown asserted genus"):
        entry_from_dict(_base_entry(asserted={"euler": "2"}))
    with pytest.raises(CatalogError, match="bad rational"):
        entry_from_dict(_base_entry(asserted={"ahat": "two"}))
    with pytest.raises(CatalogError, match="num/den"):
        entry_from_dict(_base_entry(asserted={"ahat": 2}))
    with pytest.raises(CatalogError, match="object"):
        entry_from_dict(["not", "a", "dict"])
    with pytest.raises(CatalogError, match="exceeds the cap of 48"):
        entry_from_dict({"name": "Big", "real_dim": 50, "pontryagin_numbers": {},
                         "spin": True, "string": False})
    # asserted genera alone enumerate no partitions, so the cap does not apply
    big = entry_from_dict({"name": "Big", "real_dim": 52, "spin": True,
                           "string": False, "asserted": {"ahat": "0/1"}})
    assert big.real_dim == 52 and genus_value(big, "ahat") == 0


def test_chern_and_pontryagin_numbers_must_agree(tmp_path, monkeypatch, capsys):
    # Todd reads the Chern numbers and the other genera the Pontryagin
    # numbers: this entry would give Todd 2 but Ahat 5/3
    bad = {"name": "K3bad", "real_dim": 4, "complex_dim": 2, "chern_numbers": {"2": 24},
           "pontryagin_numbers": {"1": -40}, "spin": True, "string": False}
    with pytest.raises(CatalogError, match=r"'K3bad': Chern and Pontryagin numbers disagree "
                                           r"at \(1,\): power sum -48 from Chern, -40"):
        entry_from_dict(bad)
    assert entry_from_dict(dict(bad, pontryagin_numbers={"1": -48})).spin
    # both kinds of CP4 agree; a changed p1^2 is caught at the first mu
    raw = entry_to_dict(cp(4))
    assert entry_from_dict(raw) == cp(4)
    raw["pontryagin_numbers"]["1,1"] += 1
    with pytest.raises(CatalogError, match=r"'CP4': .* disagree at \(2,\)"):
        entry_from_dict(raw)
    # dimension 2 mod 4 has no Pontryagin numbers to compare
    assert entry_from_dict(entry_to_dict(cp(3))) == cp(3)

    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "entries": [bad]}))
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
    assert main(["compute", "--manifold", "K3bad", "--genus", "ahat"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: entry 'K3bad': ") and err.count("\n") == 1
    monkeypatch.delenv(ENV_CATALOG_PATH)
    assert list(load_default_catalog()) == ALL_NAMES


def test_entry_messages_name_the_entry():
    try:
        entry_from_dict(_base_entry(name="Troubled", real_dim="x"))
    except CatalogError as exc:
        assert "Troubled" in str(exc)
    else:
        pytest.fail("expected CatalogError")
    # the constructor's rejections, and the decoder's own, name the entry
    for bad, match in (
        (dict(real_dim=4.0), "has wrong type float"),
        (dict(real_dim=True), "has wrong type bool"),
        (dict(spin="no"), "has wrong type str"),
        (dict(spin=1), "has wrong type int"),
        (dict(name=7), "has wrong type int"),
        (dict(real_dim=2, pontryagin_numbers={}, chern_numbers={"1": 2}, complex_dim=True),
         r"complex_dim True must be real_dim/2 = 1$"),
        (dict(real_dim=2, pontryagin_numbers={}, chern_numbers={"1": 2}, complex_dim=1.0),
         r"complex_dim 1\.0 must be real_dim/2 = 1$"),
        (dict(real_dim=2, pontryagin_numbers={}, chern_numbers={"1": 2}, complex_dim=2),
         r"complex_dim 2 must be real_dim/2 = 1$"),
        (dict(real_dim=2, pontryagin_numbers={}, chern_numbers={"1": 2}, complex_dim=None),
         r"complex_dim None must be real_dim/2 = 1$"),
        (dict(complex_dim=2), r"complex_dim 2 must be absent without Chern numbers$"),
        (dict(real_dim=12, pontryagin_numbers={"1,2": 3}), r"partition \(1, 2\) is not a"),
        (dict(asserted={"ahat": "two"}), "bad rational"),
        (dict(asserted={"ahat": "1/0"}), "bad rational"),
        (dict(pontryagin_numbers={"0": 1}), "is not a partition"),
        (dict(pontryagin_numbers={"1": 2.5}), "must be an integer"),
    ):
        raw = _base_entry(**bad)
        with pytest.raises(CatalogError, match=match) as err:
            entry_from_dict(raw)
        assert str(err.value).startswith(f"entry {raw['name']!r}: ")
    # without Chern numbers the worked-out complex_dim is None, which a file may store
    assert entry_from_dict(_base_entry(complex_dim=None)) == entry_from_dict(_base_entry())


def test_loads_validation(user_catalog):
    good = dumps_catalog([k3()])
    assert _load(user_catalog, good) == {"K3": k3()}
    path = re.escape(str(user_catalog))
    for text, match in (
        ("{ not json", f"^invalid JSON in {path} at line 1, column"),
        ('{\n "entries": [\n  { bad\n ]\n}', "line 3"),
        ("[]", f"^{path}: top level"),
        ('{"schema_version": 1, "entries": [], "extra": 0}', "top-level"),
        ('{"schema_version": 99, "entries": []}', "schema_version"),
        ('{"entries": []}', "schema_version"),
        ('{"schema_version": 1, "entries": {}}', "list"),
    ):
        with pytest.raises(CatalogError, match=match):
            _load(user_catalog, text)
    payload = json.loads(good)
    payload["entries"].append(payload["entries"][0])
    with pytest.raises(CatalogError, match="duplicate"):
        _load(user_catalog, json.dumps(payload))


def test_save_and_load_file(user_catalog, tmp_path, monkeypatch):
    again = _load(user_catalog, dumps_catalog([k3()]))
    assert list(again) == ["K3"] and again["K3"] == k3()
    monkeypatch.setenv(ENV_CATALOG_PATH, str(tmp_path / "absent.json"))
    with pytest.raises(CatalogError, match="cannot read"):
        load_default_catalog()
    monkeypatch.setenv(ENV_CATALOG_PATH, str(tmp_path))  # a directory
    with pytest.raises(CatalogError, match="^cannot read catalog"):
        load_default_catalog()


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",  # not UTF-8
    b'{"schema_version": 1, "entries": [], "n": ' + b"1" * 4301 + b"}",  # past int() digits
    b"[" * 100_000,  # deeper than the decoder's recursion limit
], ids=["not-utf8", "long-int", "deep-nesting"])
def test_undecodable_catalog_files(tmp_path, monkeypatch, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
    with pytest.raises(CatalogError, match="bad.json"):
        load_default_catalog()
    assert main(["catalog", "list"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_asserted_exponent_refused_from_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION,
                                "entries": [_base_entry(asserted={"ahat": "1e1000000000"})]}))
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
    with pytest.raises(CatalogError, match="bad rational '1e1000000000'"):
        load_default_catalog()
    assert main(["catalog", "list"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_env_override(tmp_path, monkeypatch):
    path = tmp_path / "alt.json"
    alt = ManifoldData(name="ALT", real_dim=4, pontryagin_numbers={(1,): 1},
                       spin=False)
    path.write_text(dumps_catalog([alt]))
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
    assert load_default_catalog() == {"ALT": alt}
    monkeypatch.delenv(ENV_CATALOG_PATH)
    assert list(load_default_catalog()) == ALL_NAMES


def test_resolve(user_catalog):
    user_catalog.write_text(dumps_catalog([k3()]))
    assert resolve("K3").name == "K3"
    # builtins stay reachable even when the catalog lacks them
    assert resolve("CP3").complex_dim == 3
    assert resolve("T6").real_dim == 6
    with pytest.raises(UnknownManifold, match=r"^'E8' is neither a catalog entry nor a builtin "
                       r"\(builtins: CPn, Sn, Tn, K3, HP2\)$"):
        resolve("E8")
    # a builtin name whose n its factory refuses is told why
    with pytest.raises(UnknownManifold, match=r"^S3 is not available \(need even n >= 2\)$"):
        resolve("S3")
    with pytest.raises(UnknownManifold, match=r"^T3 is not available \(need even k >= 2\)$"):
        resolve("T3")
    # a name that is not a str is refused by the builtins, hashable or not
    for name in (["K3"], 3):
        with pytest.raises(DomainError, match="^a manifold name must be a str"):
            resolve(name)
    user_catalog.write_text(dumps_catalog([]))
    assert resolve("K3") == k3()


@pytest.mark.parametrize("call, error, message", [
    (lambda path: dumps_catalog(5), DomainError, "entries must be a list of ManifoldData, got 5"),
    (lambda path: dumps_catalog((k3(),)), DomainError,
     "entries must be a list of ManifoldData, got (ManifoldData("),
    (lambda path: dumps_catalog([k3(), None]), DomainError, "expected ManifoldData, got None"),
    (lambda path: _load(path, '{"schema_version": 2, "entries": []}'), CatalogError,
     "<path>: unsupported schema_version 2 (expected 1)"),
    (lambda path: _load(path, '{"schema_version": true, "entries": []}'), CatalogError,
     "<path>: unsupported schema_version True (expected 1)"),
    (lambda path: _load(path, '{"schema_version": 1.0, "entries": []}'), CatalogError,
     "<path>: unsupported schema_version 1.0 (expected 1)"),
], ids=["int", "tuple", "None-entry", "version-2", "version-True", "version-float"])
def test_catalog_file_checks_its_fields(user_catalog, call, error, message):
    # a file's two fields: its entries are checked by the writer, and its
    # schema version, a constant, by the reader alone
    with pytest.raises(error) as err:
        call(user_catalog)
    assert str(err.value).startswith(message.replace("<path>", str(user_catalog)))
    assert dumps_catalog([]) == json.dumps({"schema_version": SCHEMA_VERSION, "entries": []},
                                           indent=2) + "\n"


def test_catalog_file_refuses_a_repeated_name(user_catalog):
    # the writer refuses what the reader would: one check, in _by_name
    with pytest.raises(CatalogError, match="^duplicate entry name 'K3'$"):
        dumps_catalog([k3(), k3()])
    payload = json.loads(dumps_catalog([k3(), hp2()]))
    payload["entries"][1]["name"] = "K3"
    with pytest.raises(CatalogError, match="^duplicate entry name 'K3'$"):
        _load(user_catalog, json.dumps(payload))


@pytest.mark.parametrize("key", ["1_0", "+10", "\u0661\u0660", " 9, 1", "01", "1, 1"],
                         ids=["underscore", "plus", "arabic-indic", "spaces", "leading-zero",
                              "space-after-comma"])
def test_partition_keys_are_ascii_digits(user_catalog, key):
    # int() reads each piece of these; a key is read only in the form the writer gives it
    def entry(key):
        return {"name": "E40", "real_dim": 40, "spin": False, "string": False,
                "pontryagin_numbers": {key: 1}}

    assert entry_from_dict(entry("10")).pontryagin_numbers == {(10,): 1}
    assert entry_from_dict(entry("9,1")).pontryagin_numbers == {(9, 1): 1}
    text = json.dumps({"schema_version": SCHEMA_VERSION, "entries": [entry(key)]})
    with pytest.raises(CatalogError) as err:
        _load(user_catalog, text)
    assert str(err.value) == f"entry 'E40': malformed partition key {key!r}"


def test_resolved_numbers_are_read_only():
    catalog = load_default_catalog()
    for name, field in (("HP2", "pontryagin_numbers"), ("CP3", "chern_numbers"),
                        ("B8", "asserted_genera")):
        entry = catalog[name]
        assert resolve(name) == entry
        numbers = getattr(entry, field)
        key = next(iter(numbers))
        before = numbers[key]
        with pytest.raises(TypeError):
            numbers[key] = before + 1
        with pytest.raises(TypeError):
            del numbers[key]
        assert getattr(catalog[name], field)[key] == before
    # the read-only mappings still serialize, sum and multiply
    assert entry_to_dict(catalog["HP2"])["pontryagin_numbers"] == {"2": 7, "1,1": 4}
    assert dumps_catalog(list(catalog.values())) == _packaged_text()
