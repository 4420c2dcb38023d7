"""Catalog JSON contract: canonical serialization, field validation with
named entries in every message, environment override, and name resolution."""

import json
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
    load_catalog,
    load_default_catalog,
    loads_catalog,
    resolve,
)
from genus_forge.cli import main
from genus_forge.errors import CatalogError, DomainError, UnknownManifold
from genus_forge.genera import genus_value
from genus_forge.manifolds import GenusKind, ManifoldData, cp, hp2, k3

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


def test_shipped_catalog_round_trips_byte_identical():
    text = _packaged_text()
    catalog = loads_catalog(text)
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


def test_entry_round_trip():
    entry = k3()
    redone = entry_from_dict(json.loads(json.dumps(entry_to_dict(entry))))
    assert redone == entry


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
    with pytest.raises(CatalogError, match=r"\(2, 1\) sums to 3"):
        # partition weight 3 > available weight, named in the message
        entry_from_dict(_base_entry(pontryagin_numbers={"2,1": 5}))
    with pytest.raises(CatalogError, match="duplicate partition '1, 1' in pontryagin_numbers"):
        # "1,1" and "1, 1" both decode to (1, 1), even with equal values
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
    assert big.real_dim == 52 and genus_value(big, GenusKind.AHAT) == 0


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
    # the constructor's rejections come back naming the entry
    for bad, match in (
        (dict(real_dim=4.0), "has wrong type float"),
        (dict(real_dim=True), "has wrong type bool"),
        (dict(spin="no"), "has wrong type str"),
        (dict(spin=1), "has wrong type int"),
        (dict(name=7), "has wrong type int"),
        (dict(real_dim=2, pontryagin_numbers={}, chern_numbers={"1": 2}, complex_dim=True),
         "has wrong type bool"),
        (dict(asserted={"ahat": "two"}), "bad rational"),
        (dict(asserted={"ahat": "1/0"}), "bad rational"),
        (dict(pontryagin_numbers={"0": 1}), "is not a partition"),
        (dict(pontryagin_numbers={"1": 2.5}), "must be an integer"),
    ):
        raw = _base_entry(**bad)
        with pytest.raises(CatalogError, match=match) as err:
            entry_from_dict(raw)
        assert str(err.value).startswith(f"entry {raw['name']!r}: ")


def test_loads_validation():
    good = dumps_catalog([k3()])
    assert loads_catalog(good) == {"K3": k3()}
    with pytest.raises(CatalogError, match="line 1, column"):
        loads_catalog("{ not json")
    # a source past str()'s 4,300-digit limit is shown by its size
    with pytest.raises(CatalogError, match="^invalid JSON in an integer of 16610 bits at line 1"):
        loads_catalog("{", source=10**5000)
    with pytest.raises(CatalogError, match="line 3"):
        loads_catalog('{\n "entries": [\n  { bad\n ]\n}')
    with pytest.raises(CatalogError, match="top level"):
        loads_catalog("[]")
    with pytest.raises(CatalogError, match="top-level"):
        loads_catalog('{"schema_version": 1, "entries": [], "extra": 0}')
    with pytest.raises(CatalogError, match="schema_version"):
        loads_catalog('{"schema_version": 99, "entries": []}')
    with pytest.raises(CatalogError, match="schema_version"):
        loads_catalog('{"entries": []}')
    with pytest.raises(CatalogError, match="list"):
        loads_catalog('{"schema_version": 1, "entries": {}}')
    payload = json.loads(good)
    payload["entries"].append(payload["entries"][0])
    with pytest.raises(CatalogError, match="duplicate"):
        loads_catalog(json.dumps(payload))


def test_save_and_load_file(tmp_path):
    path = tmp_path / "cat.json"
    path.write_text(dumps_catalog([k3()]))
    again = load_catalog(path)
    assert list(again) == ["K3"] and again["K3"] == k3()
    assert load_catalog(str(path)) == again
    with pytest.raises(CatalogError, match="cannot read"):
        load_catalog(tmp_path / "absent.json")
    with pytest.raises(CatalogError, match="^cannot read catalog"):
        load_catalog(tmp_path)  # a directory
    # an int is no path: it must not be opened as a file descriptor
    with pytest.raises(CatalogError, match="^a catalog path must be a str or a path, got 0$"):
        load_catalog(0)


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",  # not UTF-8
    b'{"schema_version": 1, "entries": [], "n": ' + b"1" * 4301 + b"}",  # past int() digits
    b"[" * 100_000,  # deeper than the decoder's recursion limit
], ids=["not-utf8", "long-int", "deep-nesting"])
def test_undecodable_catalog_files(tmp_path, monkeypatch, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(CatalogError, match="bad.json"):
        load_catalog(path)
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
    assert main(["catalog", "list"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_asserted_exponent_refused_from_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION,
                                "entries": [_base_entry(asserted={"ahat": "1e1000000000"})]}))
    with pytest.raises(CatalogError, match="bad rational '1e1000000000'"):
        load_catalog(path)
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
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


def test_resolve():
    assert resolve("K3").name == "K3"
    # builtins stay reachable even when the catalog lacks them
    small = {"K3": k3()}
    assert resolve("CP3", small).complex_dim == 3
    assert resolve("T6", small).real_dim == 6
    with pytest.raises(UnknownManifold) as err:
        resolve("E8", small)
    assert "E8" in str(err.value)
    assert resolve("K3", {}) == k3()
    with pytest.raises(DomainError, match="^catalog must be a dict of entries by name, got 5$"):
        resolve("K3", catalog=5)
    # a list of entries is not the catalog a loader returns
    with pytest.raises(DomainError, match=r"^catalog must be a dict of entries by name, got \[Man"):
        resolve("K3", [k3()])
    # a name that is not a str is refused by the builtins, hashable or not
    for name in (["K3"], 3):
        with pytest.raises(DomainError, match="^a manifold name must be a str"):
            resolve(name, small)


@pytest.mark.parametrize("call, error, message", [
    (lambda: dumps_catalog(5), DomainError, "entries must be a list of ManifoldData, got 5"),
    (lambda: dumps_catalog((k3(),)), DomainError,
     "entries must be a list of ManifoldData, got (ManifoldData("),
    (lambda: dumps_catalog([k3(), None]), DomainError, "expected ManifoldData, got None"),
    (lambda: loads_catalog('{"schema_version": 2, "entries": []}'), CatalogError,
     "<string>: unsupported schema_version 2 (expected 1)"),
    (lambda: loads_catalog('{"schema_version": true, "entries": []}'), CatalogError,
     "<string>: unsupported schema_version True (expected 1)"),
    (lambda: loads_catalog('{"schema_version": 1.0, "entries": []}'), CatalogError,
     "<string>: unsupported schema_version 1.0 (expected 1)"),
], ids=["int", "tuple", "None-entry", "version-2", "version-True", "version-float"])
def test_catalog_file_checks_its_fields(call, error, message):
    # a file's two fields: its entries are checked by the writer, and its
    # schema version, a constant, by the reader alone
    with pytest.raises(error) as err:
        call()
    assert str(err.value).startswith(message)
    assert dumps_catalog([]) == json.dumps({"schema_version": SCHEMA_VERSION, "entries": []},
                                           indent=2) + "\n"


def test_catalog_file_refuses_a_repeated_name():
    # the writer refuses what the reader would: one check, in _by_name
    with pytest.raises(CatalogError, match="^duplicate entry name 'K3'$"):
        dumps_catalog([k3(), k3()])
    payload = json.loads(dumps_catalog([k3(), hp2()]))
    payload["entries"][1]["name"] = "K3"
    with pytest.raises(CatalogError, match="^duplicate entry name 'K3'$"):
        loads_catalog(json.dumps(payload))


@pytest.mark.parametrize("key", ["1_0", "+10", "\u0661\u0660"],
                         ids=["underscore", "plus", "arabic-indic"])
def test_partition_keys_are_ascii_digits(key):
    # int() reads each of these as 10; the written form is ASCII digits
    def entry(key):
        return {"name": "E40", "real_dim": 40, "spin": False, "string": False,
                "pontryagin_numbers": {key: 1}}

    assert entry_from_dict(entry("10")).pontryagin_numbers == {(10,): 1}
    assert entry_from_dict(entry(" 9, 1")).pontryagin_numbers == {(9, 1): 1}
    text = json.dumps({"schema_version": SCHEMA_VERSION, "entries": [entry(key)]})
    with pytest.raises(CatalogError) as err:
        loads_catalog(text)
    assert str(err.value) == f"entry 'E40': malformed partition key {key!r}"


def test_resolved_numbers_are_read_only():
    catalog = load_default_catalog()
    for name, field in (("HP2", "pontryagin_numbers"), ("CP3", "chern_numbers"),
                        ("B8", "asserted_genera")):
        entry = resolve(name, catalog)
        numbers = getattr(entry, field)
        key = next(iter(numbers))
        before = numbers[key]
        with pytest.raises(TypeError):
            numbers[key] = before + 1
        with pytest.raises(TypeError):
            del numbers[key]
        assert getattr(resolve(name, catalog), field)[key] == before
    # the read-only mappings still serialize, sum and multiply
    hp2 = resolve("HP2", catalog)
    assert entry_to_dict(hp2)["pontryagin_numbers"] == {"2": 7, "1,1": 4}
    assert dumps_catalog(list(loads_catalog(_packaged_text()).values())) == _packaged_text()
