"""End-to-end command-line checks through main(argv): text goldens, JSON
payloads, the usage/data/numerical exit-code split, the command-line syntax
the parser accepts, and the help pages."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genus_forge
from genus_forge import manifolds
from genus_forge.catalog import (
    ENV_CATALOG_PATH,
    SCHEMA_VERSION,
    CatalogFile,
    save_catalog,
)
from genus_forge.cli import main
from genus_forge.manifolds import ManifoldData, cp, product

SRC = str(Path(genus_forge.__file__).resolve().parents[1])


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
        ("compute", "--man", "CP3", "--genus", "todd"),       # no abbreviations
        ("elliptic", "--manifold", "K3", "--kind", "witten", "--order", "-1"),  # below minimum
        ("catalog", "show"),                                  # missing argument
        ("catalog", "show", "K3", "extra"),                   # extra argument
        ("compute", "--manifold", "K3", "--genus"),           # option without its value
        ("catalog", "list", "--json=yes"),                    # flag given a value
    ):
        code, out, err = run(*args)
        assert code == 1, args
        assert out == "", args
        assert err.startswith("Usage: genus-forge") and "Error: " in err, args


def test_bare_groups_print_their_help_on_stderr(run):
    for args, child in (((), "compute"), (("catalog",), "show")):
        code, out, err = run(*args)
        assert (code, out) == (1, ""), args
        assert err.startswith(f"Usage: {' '.join(('genus-forge', *args))} ") and child in err


def test_option_syntax(run):
    assert run("compute", "--manifold=CP3", "--genus=todd") == (0, "1\n", "")
    # the last of a repeated option wins: Todd of CP2 is 1, Ahat is -1/8
    assert run("compute", "--manifold", "CP2", "--genus", "todd", "--genus", "ahat") == \
        (0, "-1/8\n", "")
    # `--` ends the options, and a positional may follow them
    shown = run("catalog", "show", "K3", "--json")
    assert shown[0] == 0 and run("catalog", "show", "--json", "--", "K3") == shown


def test_keyboard_interrupt_aborts(run, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("genus_forge.bounds.c_of_b", interrupt)
    code, out, err = run("bound", "cb", "--m", "2", "--b", "1.0")
    assert (code, out) == (1, "") and err.strip() == "aborted"


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_1_quietly(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=SRC, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from genus_forge.cli import main; sys.exit(main())",
         "catalog", "list"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader leaves before the first line is written, as `| head` can
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


# Copied from the help pages the CLI printed when it was built on click: per
# page, the docstring, then every option, choice and shown default (or every
# subcommand), and how many options are marked required.
HELP_PAGES = {
    (): (["Exact multiplicative genera", "bound", "catalog", "compute", "cover", "elliptic",
          "indices", "modular"], 0),
    ("catalog",): (["Inspect the manifold catalog.", "list", "show"], 0),
    ("catalog", "list"): (["Names and basic data of every catalog entry.", "--json"], 0),
    ("catalog", "show"): (["Full stored data of one entry (builtins included).", "NAME",
                           "--json"], 0),
    ("compute",): (["One rational genus of one manifold.", "--manifold", "--genus", "todd",
                    "ahat", "lhat", "signature", "--json"], 2),
    ("elliptic",): (["q-expansion of an elliptic or Witten genus.", "--manifold", "--kind",
                     "ell1", "ell2", "witten", "--order", "default: 24", "--json"], 2),
    ("indices",): (["Twisted Dirac indices for bundle steps 0..max.", "--manifold", "--family",
                    "[B|W]", "--max", "default: 8", "--json"], 2),
    ("modular",): (["Eisenstein fits and the numeric transformation check.", "check", "fit"], 0),
    ("modular", "fit"): (["Fit the Witten series against weight-matched E4^i * E6^j monomials.",
                          "--manifold", "--order", "default: 24", "--json"], 1),
    ("modular", "check"): (["Compare both sides of the inversion relation numerically.",
                            "--manifold", "--tau-im", "default: 1.5", "--order", "default: 24",
                            "--tol", "default: 1e-08", "--json"], 1),
    ("bound",): (["Analytic constants and index bounds.", "cb", "index"], 0),
    ("bound", "cb"): (["The positive root c_of_b(m, b).", "--m", "--b", "--method", "bisection",
                       "secant", "default: bisection", "--json"], 2),
    ("bound", "index"): (["Full index-bound report with every intermediate constant.", "--m",
                          "--p", "--lambda", "--diam", "--b", "--cmp", "default: 1.0", "--v",
                          "--l", "default: 1;", "--json"], 5),
    ("cover",): (["Torus-quotient covering simulations.", "diam", "l2", "tower"], 0),
    ("cover", "diam"): (["BFS diameters of a quotient and its cover, plus the index inequality.",
                         "--k", "--base", "--factor", "--json"], 3),
    ("cover", "tower"): (["The doubling sublattice tower and its index sequence.", "--k",
                          "--depth", "--json"], 2),
    ("cover", "l2"): (["Normalized Betti ratios along the tower.", "--k", "--p", "--depth",
                       "--json"], 3),
}


@pytest.mark.parametrize("path", sorted(HELP_PAGES))
def test_help_pages(run, path):
    names, required = HELP_PAGES[path]
    code, out, err = run(*path, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"Usage: {' '.join(('genus-forge', *path))} [OPTIONS]")
    assert all(name in out for name in names), [name for name in names if name not in out]
    assert out.count("required") == required


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
        # an option takes the next token as its value even when it starts with '-'
        ("bound", "cb", "--m", "2", "--b", "-1e-3"),
        ("modular", "check", "--manifold", "HP2", "--tau-im", "-inf"),
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


def test_compute_json_converts_chern_data_once(run, tmp_path, monkeypatch):
    # a Chern-only entry of dimension 8: the value and its source share one conversion
    entry = product(cp(1), cp(3), name="C8")
    path = tmp_path / "c8.json"
    save_catalog(CatalogFile(entries=[entry], schema_version=SCHEMA_VERSION), path)
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
    calls = []
    convert = manifolds._pontryagin_from_chern
    monkeypatch.setattr(manifolds, "_pontryagin_from_chern",
                        lambda m: calls.append(m.name) or convert(m))
    code, out, _ = run("compute", "--manifold", "C8", "--genus", "ahat", "--json")
    assert code == 0 and calls == ["C8"]
    assert json.loads(out) == {
        "manifold": "C8", "genus": "ahat", "value": "0", "source": "computed",
    }


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
