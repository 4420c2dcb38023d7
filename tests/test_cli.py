"""End-to-end command-line checks through main(argv): text goldens, JSON
payloads, and the usage/data/numerical exit-code split."""

import json
import math

import pytest

from genus_forge.catalog import (
    ENV_CATALOG_PATH,
    SCHEMA_VERSION,
    CatalogFile,
    save_catalog,
)
from genus_forge.cli import main
from genus_forge.manifolds import ManifoldData


@pytest.fixture()
def run(capsys):
    def _run(*args):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


def test_compute_goldens(run):
    for manifold, genus, expected in (
        ("CP3", "todd", "1"),
        ("T2xS6_sharp_HP2", "signature", "1"),
        ("T2xS6_sharp_B8", "ahat", "1"),
        ("T2xS6_sharp_HP2", "ahat", "0"),
        ("K3", "signature", "-16"),
        ("K3", "ahat", "2"),
    ):
        code, out, _ = run("compute", "--manifold", manifold, "--genus", genus)
        assert code == 0 and out.strip() == expected


def test_compute_json_sources(run):
    code, out, _ = run("compute", "--manifold", "K3", "--genus", "ahat", "--json")
    assert code == 0
    assert json.loads(out) == {
        "manifold": "K3", "genus": "ahat", "value": "2", "source": "computed",
    }
    code, out, _ = run("compute", "--manifold", "B8", "--genus", "ahat", "--json")
    assert code == 0 and json.loads(out)["source"] == "asserted"


def test_catalog_list_and_show(run):
    code, out, _ = run("catalog", "list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 18
    assert lines[0].startswith("T2 ") and "dim=2" in lines[0]
    assert any(line.startswith("W24") and "dim=24" in line for line in lines)
    code, out, _ = run("catalog", "show", "K3")
    assert code == 0
    assert "name: K3" in out and 'chern_numbers: {"2": 24}' in out
    code, _, err = run("catalog", "show", "QQ")
    assert code == 2 and "QQ" in err


def test_elliptic_text_and_json(run):
    code, out, _ = run("elliptic", "--manifold", "K3", "--kind", "witten",
                       "--order", "2")
    assert code == 0
    assert "witten(K3) = 2 - 48*q - 144*q^2" in out
    code, out, _ = run("elliptic", "--manifold", "K3", "--kind", "ell2",
                       "--order", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["manifold"] == "K3" and payload["order"] == 2
    assert payload["coefficients"] == {
        "0": "2", "1/2": "48", "1": "48", "3/2": "192", "2": "48",
    }


def test_indices_golden(run):
    code, out, _ = run("indices", "--manifold", "K3", "--family", "B",
                       "--max", "3")
    assert code == 0
    values = [line.rsplit("=", 1)[1].strip() for line in out.splitlines()]
    assert values == ["2", "48", "48", "192"]
    code, out, _ = run("indices", "--manifold", "K3", "--family", "W",
                       "--max", "2", "--json")
    assert code == 0
    assert json.loads(out)["indices"] == {"0": "2", "1": "-48", "2": "-144"}


def test_modular_fit_output(run):
    code, out, _ = run("modular", "fit", "--manifold", "K3xK3", "--order", "8")
    assert code == 0
    assert "fit: 4*E4" in out
    assert "residual_ok: false" in out
    assert "first_mismatch: q^1 residual -1152" in out
    code, out, _ = run("modular", "fit", "--manifold", "K3xK3", "--order", "8",
                       "--json")
    payload = json.loads(out)
    assert payload["coefficients"] == {"E4": "4"}
    assert payload["residual_ok"] is False
    assert payload["first_mismatch"] == {"exponent": "1", "residual": "-1152"}


def test_modular_check_pass_and_refuse(run):
    code, out, _ = run("modular", "check", "--manifold", "HP2",
                       "--tau-im", "2.0")
    assert code == 0 and "PASS" in out
    code, _, err = run("modular", "check", "--manifold", "K3",
                       "--tau-im", "0.5")
    assert code == 3 and "must exceed 1" in err


def test_bound_cb(run):
    code, out, _ = run("bound", "cb", "--m", "2", "--b", "1.0")
    assert code == 0
    assert abs(float(out.strip()) - 1.1210593734163012) < 1e-10


def test_bound_cb_small_root(run):
    # the m = 2 root in a form that does not cancel: about 7.7e-22 at b = 50
    code, out, _ = run("bound", "cb", "--m", "2", "--b", "50")
    assert code == 0
    sh = math.sinh(50.0)
    exact = 4.0 / (sh + math.hypot(sh, 4.0 * math.sinh(25.0)))
    assert abs(float(out.strip()) - exact) <= 1e-10 * exact


def test_bound_index_text_and_json(run):
    args = ("bound", "index", "--m", "4", "--p", "5", "--lambda", "1",
            "--diam", "1", "--b", "1")
    code, out, _ = run(*args)
    assert code == 0
    assert "constant = 3921.0142231130576" in out
    assert "index_bound = 3921.0142231130576" in out
    code, out, _ = run(*args, "--json")
    payload = json.loads(out)
    assert payload["inputs"]["m"] == 4 and payload["inputs"]["v"] == 2.0
    assert payload["mu"] == 2.0 and payload["K1"] == 2.0 and payload["K2"] == 1.0
    assert abs(payload["index_bound"] - 3921.0142231130576) < 1e-6
    assert payload["dim_bound"] == payload["index_bound"]


def test_cover_commands(run):
    code, out, _ = run("cover", "diam", "--k", "2", "--base", "3,3",
                       "--factor", "2")
    assert code == 0
    assert "base_diam = 2" in out and "cover_diam = 6" in out
    assert "index = 4" in out and "holds" in out
    code, out, _ = run("cover", "tower", "--k", "3", "--depth", "3")
    assert code == 0
    assert [line.split("index=")[1] for line in out.splitlines()] == ["1", "8", "64"]
    code, out, _ = run("cover", "l2", "--k", "2", "--p", "1", "--depth", "3")
    assert code == 0 and out.strip() == "2, 1/2, 1/8"
    code, out, _ = run("cover", "l2", "--k", "2", "--p", "1", "--depth", "3",
                       "--json")
    assert code == 0 and json.loads(out)["ratios"] == ["2", "1/2", "1/8"]


def test_usage_errors_exit_1(run):
    for args in (
        ("compute", "--manifold", "K3"),                      # missing option
        ("compute", "--manifold", "K3", "--genus", "euler"),  # bad choice
        ("frobnicate",),                                      # unknown command
        ("cover", "diam", "--k", "2", "--base", "3,x", "--factor", "2"),
        ("compute", "--manifold", "K3", "--genus", "todd", "--frob"),
    ):
        code, _, err = run(*args)
        assert code == 1, args
        assert err, args


def test_data_errors_exit_2(run):
    for args in (
        ("compute", "--manifold", "XX99", "--genus", "todd"),
        ("cover", "diam", "--k", "3", "--base", "200,200,200", "--factor", "2"),
        ("bound", "index", "--m", "4", "--p", "1.5", "--lambda", "1",
         "--diam", "1", "--b", "1"),
        ("elliptic", "--manifold", "T2", "--kind", "witten"),
        ("indices", "--manifold", "B8", "--family", "B", "--max", "2"),
        # size caps, each one past its limit (nothing is computed)
        ("elliptic", "--manifold", "K3", "--kind", "witten", "--order", "101"),
        ("indices", "--manifold", "K3", "--family", "W", "--max", "101"),
        ("modular", "fit", "--manifold", "K3", "--order", "101"),
        ("modular", "check", "--manifold", "HP2", "--order", "101"),
        ("cover", "tower", "--k", "1", "--depth", "65"),
        ("cover", "tower", "--k", "65", "--depth", "1"),
        ("cover", "l2", "--k", "1", "--p", "0", "--depth", "65"),
        # real dimension two past the cap of 48, and far past it
        ("compute", "--manifold", "CP25", "--genus", "todd"),
        ("catalog", "show", "T50"),
        ("catalog", "show", "S50"),
        ("compute", "--manifold", "CP1000000", "--genus", "todd"),
        ("compute", "--manifold", "T1000000", "--genus", "ahat"),
        # modular check inputs for which the check could never pass
        ("modular", "check", "--manifold", "HP2", "--tau-im", "nan"),
        ("modular", "check", "--manifold", "HP2", "--tau-im", "inf"),
        ("modular", "check", "--manifold", "HP2", "--tol", "nan"),
        ("modular", "check", "--manifold", "HP2", "--tol", "-1"),
        ("modular", "check", "--manifold", "HP2", "--tol", "0"),
    ):
        code, _, err = run(*args)
        assert code == 2, args
        assert err.startswith("error:"), args


def test_numerical_errors_exit_3(run):
    for args in (
        ("modular", "check", "--manifold", "K3", "--tau-im", "0.5"),
        ("bound", "cb", "--m", "2", "--b", "710"),
    ):
        code, _, err = run(*args)
        assert code == 3, args
        assert err.startswith("error:"), args


def test_internal_errors_exit_4(run, monkeypatch):
    def boom(*args, **kwargs):
        raise OverflowError("integer division result too large for a float")

    monkeypatch.setattr("genus_forge.bounds.c_of_b", boom)
    code, out, err = run("bound", "cb", "--m", "2", "--b", "1.0")
    assert code == 4 and out == ""
    assert err == ("internal error: OverflowError("
                   "'integer division result too large for a float')\n")


def test_env_catalog_override(run, tmp_path, monkeypatch):
    alt = ManifoldData(name="ALT4", real_dim=4,
                       pontryagin_numbers={(1,): -48}, spin=True)
    path = tmp_path / "alt.json"
    save_catalog(CatalogFile(entries=[alt], schema_version=SCHEMA_VERSION), path)
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
    code, out, _ = run("catalog", "list")
    assert code == 0 and out.splitlines()[0].startswith("ALT4")
    code, out, _ = run("compute", "--manifold", "ALT4", "--genus", "ahat")
    assert code == 0 and out.strip() == "2"
    # builtins resolve even when missing from the active catalog
    code, out, _ = run("compute", "--manifold", "K3", "--genus", "ahat")
    assert code == 0 and out.strip() == "2"


def test_env_catalog_asserted_entry_past_the_cap(run, tmp_path, monkeypatch):
    # an entry with asserted genera only is never enumerated, so the
    # real-dimension cap does not refuse it or the catalog that holds it
    big = ManifoldData(name="BIG52", real_dim=52, spin=True,
                       asserted_genera={"ahat": 0})
    path = tmp_path / "big.json"
    save_catalog(CatalogFile(entries=[big], schema_version=SCHEMA_VERSION), path)
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
    code, out, _ = run("catalog", "list")
    assert code == 0 and out.splitlines()[0].startswith("BIG52")
    code, out, _ = run("compute", "--manifold", "BIG52", "--genus", "ahat")
    assert code == 0 and out.strip() == "0"
