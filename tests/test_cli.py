"""End-to-end command-line checks through main(argv): text goldens, JSON
payloads, the usage/data/numerical exit-code split, the command-line syntax
the parser accepts, and the help pages."""

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import genus_forge
from genus_forge import elliptic
from genus_forge.catalog import ENV_CATALOG_PATH, SCHEMA_VERSION, dumps_catalog
from genus_forge.cli import COMMANDS, main
from genus_forge.covering import cover_diameter
from genus_forge.errors import GenusForgeError
from genus_forge.manifolds import ManifoldData, cp, hp2, product
from genus_forge.qseries import QSeries

SRC = str(Path(genus_forge.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(ROOT / "scripts"))
import cli_sweep  # noqa: E402
import count_ops  # noqa: E402


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


def test_catalog_list_json_prints_the_file_it_read(tmp_path):
    # one layout: --json prints the object that dumps_catalog writes
    alt = tmp_path / "alt.json"
    alt.write_text(dumps_catalog([cp(2), product(cp(1), cp(3), name="C8"), hp2()]))
    packaged = Path(SRC) / "genus_forge" / "data" / "default_catalog.json"
    env = {key: value for key, value in os.environ.items() if key != ENV_CATALOG_PATH}
    for path, extra in ((packaged, {}), (alt, {ENV_CATALOG_PATH: str(alt)})):
        proc = subprocess.run([sys.executable, "-c", cli_sweep.ENTRY, "catalog", "list", "--json"],
                              capture_output=True, env=dict(env, PYTHONPATH=SRC, **extra),
                              timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == path.read_bytes()


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


X4_ARGV = ("indices", "--manifold", "X4", "--family", "B", "--max", "1")


def _x4_catalog(tmp_path):
    """A catalog whose spin entry X4 has a non-integral twisted index B_0."""
    path = tmp_path / "x4.json"
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "entries": [
        {"name": "X4", "real_dim": 4, "pontryagin_numbers": {"1": 3}, "spin": True,
         "string": False}]}))
    return path


def test_warning_prints_one_line(run, tmp_path, monkeypatch):
    path = _x4_catalog(tmp_path)
    env = dict(os.environ, PYTHONPATH=SRC, **{ENV_CATALOG_PATH: str(path)})
    proc = subprocess.run([sys.executable, "-c", cli_sweep.ENTRY, *X4_ARGV], capture_output=True,
                          env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == b"k=0   q^0     ind = -1/8\nk=1   q^1/2   ind = -3\n"
    line = "warning: X4 is spin but index B_0 = -1/8 is not integral\n"
    assert proc.stderr == line.encode()
    # in process, main() leaves the warnings module as it found it
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
    shown = warnings.showwarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(*X4_ARGV)
        assert (code, err) == (0, line)
        warnings.warn("after main", UserWarning)
    assert warnings.showwarning is shown and [str(w.message) for w in caught] == ["after main"]


def test_warning_raised_as_error_exits_2(tmp_path):
    # under `python -W error` the warning is an exception: corrupt data, exit 2
    env = dict(os.environ, PYTHONPATH=SRC, **{ENV_CATALOG_PATH: str(_x4_catalog(tmp_path))})
    proc = subprocess.run([sys.executable, "-W", "error", "-c", cli_sweep.ENTRY, *X4_ARGV],
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr == b"error: X4 is spin but index B_0 = -1/8 is not integral\n"


def test_count_ops_counts_repeat_exactly(tmp_path):
    argv = ("bound", "cb", "--m", "2", "--b", "1.0")
    first = count_ops.count(ROOT, argv, str(tmp_path))
    assert count_ops.count(ROOT, argv, str(tmp_path)) == first
    opcodes, modules, size, code, layers = first
    # `bound cb` loads the package, the CLI, the error taxonomy and bounds
    loaded = sum((Path(SRC) / "genus_forge" / f"{name}.py").stat().st_size
                 for name in ("__init__", "cli", "errors", "bounds"))
    assert code == 0 and opcodes > 0 and modules > 0 and size == loaded
    assert layers["bounds"] > 0
    assert list(tmp_path.iterdir()) == []  # no bytecode cache was written


def test_count_ops_layers_sum_to_the_count(capsys):
    # a # line after the command's, whose layers add up to its opcodes
    argv = ("cover", "tower", "--k", "3", "--depth", "3")
    assert count_ops.main(["--root", str(ROOT), *argv]) == 0
    _, line, split = capsys.readouterr().out.splitlines()
    assert split.startswith("# ")
    layers = {name: int(n) for name, n in (field.split("=") for field in split[2:].split())}
    assert sum(layers.values()) == int(line.split()[0])
    assert layers["covering"] > 0 and layers["import"] > 0
    assert list(layers) == ["__init__", "cli", "covering", "errors", *count_ops.SHARED]


def test_count_ops_refuses_a_zero_count(tmp_path, monkeypatch):
    # a tracer that receives no opcode events must not pass for a count
    def silent(cmd, **kwargs):
        Path(cmd[5]).write_text("0 27 45198 0")  # the counts file, after -S -B -c CHILD

    monkeypatch.setattr(count_ops.subprocess, "run", silent)
    with pytest.raises(RuntimeError, match="^the tracer counted no opcodes under Python 3"):
        count_ops.count(ROOT, ("bound", "cb", "--m", "2", "--b", "1.0"), str(tmp_path))


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
    # byte for byte: the rounding guard bounds HP2's sums at about 2e-14
    assert run("modular", "check", "--manifold", "HP2", "--tau-im", "2.0") == (
        0, "lhs = (0.48525429742290305+0j)\nrhs = (0.4852542974229032+0j)\n"
           "|lhs - rhs| = 1.665e-16 (tol 1.0e-08): PASS\n", "")
    code, _, err = run("modular", "check", "--manifold", "K3",
                       "--tau-im", "0.5")
    assert code == 3 and "must exceed 1" in err
    code, out, err = run("modular", "check", "--manifold", "HP2", "--order", "0")
    assert code == 1 and out == "" and "0 is not in the range x>=1" in err
    # both sides are about 8.5e6: the gap of 2.4e-8 is rounding, not a FAIL
    code, out, err = run("modular", "check", "--manifold", "CP16", "--tau-im", "3",
                         "--order", "40")
    assert code == 3 and out == ""
    assert err == ("error: CP16: the sums' rounding error may reach 2.0e-07 at tau_im = 3.0 "
                   "and q_trunc = 81, not well below tol = 1.0e-08; raise tol or bring "
                   "tau_im nearer 1\n")


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
    assert list(payload) == ["inputs", "mu", "K1", "K2", "c_of_b", "R", "B", "constant",
                             "dim_bound", "index_bound"]
    assert list(payload["inputs"]) == ["m", "p", "Lambda", "diam", "b", "cmp", "v", "l"]
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
    code, out, _ = run("cover", "diam", "--k", "2", "--base", "3,3", "--factor", "2", "--json")
    assert code == 0 and list(json.loads(out).items()) == [
        ("k", 2), ("base", "3,3"), ("factor", 2), ("base_diam", 2), ("cover_diam", 6),
        ("index", 4), ("inequality_holds", True)]
    code, out, _ = run("cover", "tower", "--k", "2", "--depth", "2", "--json")
    assert code == 0 and [list(lv.items()) for lv in json.loads(out)["levels"]] == [
        [("j", 1), ("scale", 1), ("index", 1)], [("j", 2), ("scale", 2), ("index", 4)]]
    code, out, _ = run("cover", "tower", "--k", "3", "--depth", "3")
    assert code == 0
    assert [line.split()[1:] for line in out.splitlines()] == [
        ["scale=2^0", "index=1"], ["scale=2^1", "index=8"], ["scale=2^2", "index=64"]]
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
        [sys.executable, "-c", cli_sweep.ENTRY, "catalog", "list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
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
        # m/2 and the rank past binary64 (an internal OverflowError, exit 4, before)
        ("bound", "index", "--m", "1" + "0" * 400, "--p", "5", "--lambda", "1",
         "--diam", "1", "--b", "1"),
        ("bound", "index", "--m", "4", "--p", "5", "--lambda", "1",
         "--diam", "1", "--b", "1", "--l", "1" + "0" * 400),
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
        # numbers past str()'s 4,300-digit limit, which an error message could
        # not format (an internal ValueError, exit 4, before)
        ("cover", "diam", "--k", "3", "--base", ",".join(["9" * 2000] * 3), "--factor", "1"),
        ("compute", "--manifold", "CP" + "9" * 5000, "--genus", "todd"),
        ("catalog", "show", "S" + "9" * 5000),
        # builtin suffixes are ASCII digits: '²' and '٤' pass str.isdigit
        ("compute", "--manifold", "CP²", "--genus", "todd"),
        ("catalog", "show", "T²"),
        ("catalog", "show", "S٤"),
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
        # q' = e^(-2 pi / tau_im) nears 1: the truncated lhs no longer converges
        ("modular", "check", "--manifold", "HP2", "--tau-im", "10"),
        ("modular", "check", "--manifold", "HP2", "--tau-im", "50"),
        ("modular", "check", "--manifold", "HP2", "--tau-im", "2.0", "--order", "4"),
        # the smallest accepted order: q^0 .. q^1 are too few terms at tau_im = 1.5
        ("modular", "check", "--manifold", "HP2", "--order", "1"),
        ("bound", "cb", "--m", "2", "--b", "710"),
        # a subnormal b: (m-1) b / 6 underflows to 0
        ("bound", "cb", "--m", "2", "--b", "5e-324"),
        # binary64 limits of the Moser constant: a power overflows, R
        # overflows, mu rounds to 1
        ("bound", "index", "--m", "2", "--p", "5", "--lambda", "0", "--diam", "1", "--b", "700"),
        ("bound", "index", "--m", "2", "--p", "5", "--lambda", "0", "--diam", "1e308", "--b", "700"),
        ("bound", "index", "--m", "2", "--p", "1e17", "--lambda", "0", "--diam", "1", "--b", "1"),
    ):
        code, _, err = run(*args)
        assert code == 3, args
        assert err.startswith("error:"), args


def test_float_range_refusals_exit_3(run, tmp_path, monkeypatch):
    # the scale (2 tau)^(2m) past binary64
    code, out, err = run("modular", "check", "--manifold", "HP2", "--tau-im", "1e80")
    assert (code, out, err) == (3, "", "error: HP2: the scale (2 tau)^4 overflows binary64 at "
                                       "tau_im = 1e+80; bring tau_im nearer 1\n")
    code, out, err = run("modular", "check", "--manifold", "CP24", "--tau-im", "1e13",
                         "--order", "4")
    assert (code, out, err) == (3, "", "error: CP24: the scale (2 tau)^24 overflows binary64 "
                                       "at tau_im = 10000000000000.0; bring tau_im nearer 1\n")
    # a Pontryagin number past binary64 makes elliptic coefficients that no
    # float holds
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "entries": [
        {"name": "Q8", "real_dim": 8, "pontryagin_numbers": {"2": 7 * 10**400, "1,1": 4},
         "spin": True, "string": False}]}))
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
    code, out, err = run("modular", "check", "--manifold", "Q8")
    assert (code, out) == (3, "")
    assert err.startswith("error: the coefficient at half-exponent ") and \
        err.endswith(" lies past binary64; the series cannot be evaluated in floats\n")


def test_internal_errors_exit_4(run, monkeypatch):
    def boom(*args, **kwargs):
        raise OverflowError("integer division result too large for a float")

    monkeypatch.setattr("genus_forge.bounds.c_of_b", boom)
    code, out, err = run("bound", "cb", "--m", "2", "--b", "1.0")
    assert code == 4 and out == ""
    assert err == ("internal error: OverflowError("
                   "'integer division result too large for a float')\n")


def test_half_powers_in_the_witten_genus_exit_4(run, monkeypatch):
    # the integer-grid check in elliptic_genus guards the library, not the data
    real_logs = elliptic.elliptic_logs

    def half_powers(kind, weight, q_trunc):
        return [log + QSeries({1: 1}, q_trunc) for log in real_logs(kind, weight, q_trunc)]

    monkeypatch.setattr(elliptic, "elliptic_logs", half_powers)
    code, out, err = run("elliptic", "--manifold", "HP2", "--kind", "witten", "--order", "2")
    assert code == 4 and out == ""
    assert err == ("internal error: RuntimeError("
                   "'witten series left the integer power grid; this is a bug')\n")


def test_env_catalog_override(run, tmp_path, monkeypatch):
    alt = ManifoldData(name="ALT4", real_dim=4,
                       pontryagin_numbers={(1,): -48}, spin=True)
    path = tmp_path / "alt.json"
    path.write_text(dumps_catalog([alt]))
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
    code, out, _ = run("catalog", "list")
    assert code == 0 and out.splitlines()[0].startswith("ALT4")
    code, out, _ = run("compute", "--manifold", "ALT4", "--genus", "ahat")
    assert code == 0 and out.strip() == "2"
    # builtins resolve even when missing from the active catalog
    code, out, _ = run("compute", "--manifold", "K3", "--genus", "ahat")
    assert code == 0 and out.strip() == "2"


def test_compute_json_reads_chern_data(run, tmp_path, monkeypatch):
    # a Chern-only entry of dimension 8: its Ahat genus is computed, not asserted
    entry = product(cp(1), cp(3), name="C8")
    path = tmp_path / "c8.json"
    path.write_text(dumps_catalog([entry]))
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
    code, out, _ = run("compute", "--manifold", "C8", "--genus", "ahat", "--json")
    assert code == 0
    assert json.loads(out) == {
        "manifold": "C8", "genus": "ahat", "value": "0", "source": "computed",
    }


def test_env_catalog_asserted_entry_past_the_cap(run, tmp_path, monkeypatch):
    # an entry with asserted genera only is never enumerated, so the
    # real-dimension cap does not refuse it or the catalog that holds it
    big = ManifoldData(name="BIG52", real_dim=52, spin=True,
                       asserted_genera={"ahat": 0})
    path = tmp_path / "big.json"
    path.write_text(dumps_catalog([big]))
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
    code, out, _ = run("catalog", "list")
    assert code == 0 and out.splitlines()[0].startswith("BIG52")
    code, out, _ = run("compute", "--manifold", "BIG52", "--genus", "ahat")
    assert code == 0 and out.strip() == "0"


def test_empty_catalog_lists_nothing(run, tmp_path, monkeypatch):
    path = tmp_path / "empty.json"
    path.write_text('{"schema_version": 1, "entries": []}')
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
    assert run("catalog", "list") == (0, "", "")
    assert run("catalog", "list", "--json") == (
        0, json.dumps({"schema_version": 1, "entries": []}, indent=2) + "\n", "")


# one command line per command, each run in text and with --json
SAMPLES = {
    ("catalog", "list"): (),
    ("catalog", "show"): ("K3",),
    ("compute",): ("--manifold", "K3", "--genus", "ahat"),
    ("elliptic",): ("--manifold", "K3", "--kind", "witten", "--order", "2"),
    ("indices",): ("--manifold", "K3", "--family", "B", "--max", "3"),
    ("modular", "fit"): ("--manifold", "HP2", "--order", "4"),
    ("modular", "check"): ("--manifold", "HP2", "--tau-im", "2.0"),
    ("bound", "cb"): ("--m", "2", "--b", "1.0"),
    ("bound", "index"): ("--m", "4", "--p", "5", "--lambda", "1", "--diam", "1", "--b", "1"),
    ("cover", "diam"): ("--k", "2", "--base", "3,3", "--factor", "2"),
    ("cover", "tower"): ("--k", "2", "--depth", "2"),
    ("cover", "l2"): ("--k", "2", "--p", "1", "--depth", "3"),
}


def test_samples_cover_every_command():
    assert set(SAMPLES) == set(COMMANDS)


def test_golden_lists_the_sweep_without_internal_errors():
    # CI's golden step diffs the sweep, which also holds every command to its
    # budgets, against the golden; here only its rows are checked:
    # `exit stdout-sha256 stderr-sha256 argv`, one per sweep command.  A kill
    # past a budget lists a negative exit, which is refused as exit 4 is
    rows = [line.split() for line in
            (ROOT / "scripts" / "cli_golden.txt").read_text(encoding="utf-8").splitlines()]
    assert [tuple(row[3:]) for row in rows] == cli_sweep.commands(ROOT)
    assert all(row[0] in {"0", "1", "2", "3"} for row in rows)  # no exit 4, no timeout
    assert all(len(row[1]) == len(row[2]) == 64 for row in rows)


def test_frontier_covers_reach_the_closed_form():
    # the golden step pins these commands' bytes and their time: here each
    # cover, of moduli 2 * base at the vertex cap, has the closed-form diameter
    shapes = [(int(argv[3]), tuple(map(int, argv[5].split(","))), int(argv[7]))
              for argv in cli_sweep.FRONTIER if argv[:2] == ("cover", "diam")]
    assert len(shapes) == 6
    for k, base, factor in shapes:
        assert cover_diameter(k, base, factor).cover_diam == sum(base), base


def test_sweep_runner_limits_are_live(monkeypatch):
    argv = ("catalog", "show", "K3")
    assert cli_sweep.run_one(ROOT, argv)[0] == "0"
    # an address space the interpreter already fills: the command cannot run
    monkeypatch.setattr(cli_sweep, "MEMORY_BYTES", 2**20)
    assert cli_sweep.run_one(ROOT, argv)[0] not in {"0", "timeout"}


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc")
def test_sweep_reads_the_commands_own_peak_rss():
    # a child's ru_maxrss starts at its parent's RSS at the spawn, which this
    # ballast raises; the child's own VmHWM starts afresh at exec
    ballast = b"x" * (64 * 2**20)
    rss = cli_sweep.run_one(ROOT, ("catalog", "show", "K3"))[5]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    del ballast
    assert 0 < rss < min(own, 64), (rss, own)


def test_sweep_prints_the_frontier_rows_on_stderr(capsys):
    cover = next(argv for argv in cli_sweep.FRONTIER if argv[:2] == ("cover", "diam"))
    argvs = [cover, cover + ("--json",), ("catalog", "show", "K3")]
    rows = cli_sweep.sweep(ROOT, argvs)
    assert [row[0] for row in rows] == ["0", "0", "0"]
    header, *lines = capsys.readouterr().err.splitlines()
    assert header.endswith("cpu-s wall-s peak-rss-MiB budget-s exit argv")
    # CPU s, wall s, peak RSS MiB, budget s, exit, then the argv: the frontier rows only
    assert [tuple(line.split()[5:]) for line in lines] == argvs[:2]
    assert [line.split()[3:5] for line in lines] == [[str(cli_sweep.FRONTIER[cover]), "0"]] * 2


def test_module_form_runs_the_cli(run):
    env = {key: value for key, value in os.environ.items() if key != ENV_CATALOG_PATH}
    proc = subprocess.run([sys.executable, "-m", "genus_forge.cli", "catalog", "show", "K3"],
                          capture_output=True, env=dict(env, PYTHONPATH=SRC), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    code, out, _ = run("catalog", "show", "K3")
    assert code == 0 and proc.stdout.decode() == out != ""


def _catalog_entry(**fields):
    return {"name": "X", "real_dim": 4, "spin": False, "string": False, **fields}


# CP2's Chern numbers (c2 = 3, c1^2 = 9) give p1 = c1^2 - 2 c2 = 3
MALFORMED_CATALOGS = {
    "invalid-json": ("{", "invalid JSON"),
    "top-level-list": ("[]", "top level must be an object"),
    "unknown-field": ([_catalog_entry(colour="red")], "unknown field(s) ['colour']"),
    "missing-field": ([{"name": "X", "real_dim": 4, "spin": False}],
                      "missing required field 'string'"),
    "partition-key": ([_catalog_entry(pontryagin_numbers={"01": 3})],
                      "malformed partition key '01'"),
    "schema-version": ({"schema_version": SCHEMA_VERSION + 1, "entries": []},
                       "unsupported schema_version"),
    "unreadable": (None, "cannot read catalog"),
    "numbers-disagree": ([_catalog_entry(chern_numbers={"2": 3, "1,1": 9},
                                         pontryagin_numbers={"1": 4})],
                         "Chern and Pontryagin numbers disagree"),
    "complex-dim": ([_catalog_entry(complex_dim=3, chern_numbers={"2": 3, "1,1": 9})],
                    "complex_dim 3 must be real_dim/2 = 2"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CATALOGS))
def test_malformed_user_catalog_exits_2(run, tmp_path, monkeypatch, case):
    content, reason = MALFORMED_CATALOGS[case]
    path = tmp_path / "catalog.json"
    if content is not None:  # "unreadable" names a file that does not exist
        if isinstance(content, list):
            content = {"schema_version": SCHEMA_VERSION, "entries": content}
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    monkeypatch.setenv(ENV_CATALOG_PATH, str(path))
    code, out, err = run("catalog", "list")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and reason in err


@pytest.mark.parametrize("path", sorted(SAMPLES), ids=" ".join)
def test_every_command_renders_text_and_json(run, path):
    argv = (*path, *SAMPLES[path])
    code, text, err = run(*argv)
    assert code == 0 and text.strip() and err == ""
    code, out, err = run(*argv, "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert isinstance(payload, dict)
    if path == ("catalog", "list"):
        assert payload["schema_version"] == 1 and len(payload["entries"]) == 18
    elif path == ("modular", "check"):
        assert payload["manifold"] == "HP2" and payload["passed"] is True
    elif path == ("bound", "cb"):
        assert payload == {"m": 2, "b": 1.0, "method": "bisection",
                           "c_of_b": float(text)}


# -- generated command lines ----------------------------------------------------------
#
# A command from the table, each of its options drawn from its declared type or
# replaced by an edge token.  Whatever the command line, main() answers with an
# exit code of 0 to 3: a usage, data or numerical error is typed, and exit 4
# (an internal error) never happens.

EDGE_TOKENS = ("nan", "-inf", "inf", "1e308", "5e-324", "-0", "0", "-1",
               "1" + "0" * 39, "-" + "9" * 40, "9" * 2000, "9" * 5000, "٣", "²", "", "CP²",
               "x")
MANIFOLDS = ("K3", "HP2", "CP2", "CP3", "CP4", "T4", "S4", "K3xK3", "B8", "W24",
             "T2xS6_sharp_HP2", "CP1", "T2", "S8", "NOPE", "CP25", "T50", "CP" + "9" * 5000)
# int options whose size sets the work: kept small so the test stays fast
SMALL_INTS = {"order": 6, "max_k": 6, "k_rank": 3, "depth": 6, "p_deg": 3, "factor": 3}


def _typed_value(opt):
    if opt.dest in ("manifold", "name"):
        return st.sampled_from(MANIFOLDS)
    if opt.dest == "base_text":
        return st.lists(st.integers(-1, 6), min_size=1, max_size=3).map(
            lambda ns: ",".join(map(str, ns)))
    if isinstance(opt.type, tuple):
        return st.sampled_from(opt.type)
    if opt.type is int:
        return st.integers(-2, SMALL_INTS.get(opt.dest, 12)).map(str)
    if opt.type is float:
        return st.floats(-20, 20).map(repr)
    return st.text(max_size=4)


@st.composite
def _argv(draw):
    path = draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(path)
    for opt in COMMANDS[path][1]:
        if not draw(st.integers(0, 9)):  # now and then leave out even a required one
            continue
        if opt.type is bool:
            argv.append(opt.flag)
            continue
        value = draw(st.one_of(_typed_value(opt), st.sampled_from(EDGE_TOKENS))
                     if draw(st.integers(0, 4)) else st.sampled_from(EDGE_TOKENS))
        if opt.flag[0] != "-":
            argv.append(value)
        elif draw(st.booleans()):
            argv.append(f"{opt.flag}={value}")
        else:
            argv += [opt.flag, value]
    return argv


@settings(deadline=None, max_examples=200)
@given(_argv())
@example(["bound", "cb", "--m", "2", "--b", "5e-324"])
@example(["cover", "diam", "--k", "1", "--base", "3", "--factor", "1" + "0" * 39])
@example(["modular", "check", "--manifold", "HP2", "--tau-im", "1e308"])
@example(["modular", "fit", "--manifold", "CP12", "--order", "1"])
# values whose message would pass str()'s 4,300-digit limit
@example(["cover", "diam", "--k", "3", "--base", "3,3,3", "--factor", "9" * 2000])
@example(["catalog", "show", "CP" + "9" * 5000])
def test_generated_command_lines_exit_typed(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue(), argv


# -- generated library input ----------------------------------------------------------
#
# The keyword arguments of a valid ManifoldData with one field, or one key or
# value of one of its maps, made wrongly shaped: a list, int keys, a nested dict, a
# float, a bool, a Fraction or a string in exponent form.  The constructor refuses
# every one with a GenusForgeError, and nothing else escapes it.  Dimension 8 has a
# Chern partition with two distinct parts, (3, 1), whose reverse is no partition key.

_VALID = {"name": "X", "real_dim": 8, "pontryagin_numbers": {(2,): 3, (1, 1): 4},
          "chern_numbers": {(3, 1): 3, (2, 2): 9}, "spin": False,
          "string": False, "asserted_genera": {"todd": 1}}
_MAPS = ("pontryagin_numbers", "chern_numbers", "asserted_genera")
_JUNK = {
    "list": st.lists(st.integers(-3, 9), max_size=3),
    "int keys": st.dictionaries(st.integers(-3, 9), st.integers(-3, 9), min_size=1, max_size=2),
    # keys of at most two characters: never a genus name
    "nested": st.dictionaries(st.text(max_size=2), st.dictionaries(
        st.text(max_size=2), st.integers(), max_size=2), min_size=1, max_size=2),
    "float": st.floats(),
    "bool": st.booleans(),
    "fraction": st.fractions(),
    "exponent": st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-400, 400)),
}
_UNHASHABLE = ("list", "int keys", "nested")


def _junk(*but):
    return st.one_of(*(strategy for kind, strategy in _JUNK.items() if kind not in but))


_WRONG = {
    "name": _junk("exponent"),
    "real_dim": st.one_of(_junk(), st.integers(-6, 0), st.integers(-5, 49).map(lambda n: 2 * n + 1)),
    "spin": _junk("bool"),
    "string": _junk("bool"),
    **dict.fromkeys(_MAPS, _junk()),
}


def _bad_key(key):
    """A scalar or text key, or for a partition the same total split into parts of
    the wrong type or sign, or in ascending order; for a genus name, a near miss."""
    scalar = st.one_of(st.integers(), st.text(max_size=3), _junk(*_UNHASHABLE))
    if isinstance(key, str):
        return st.one_of(scalar, st.sampled_from([key.upper(), f" {key}"]))
    swaps = [(i, q) for i, p in enumerate(key) for q in (float(p), Fraction(p), str(p))
             + ((True,) if p == 1 else ())]
    return st.one_of(
        scalar,
        st.sampled_from(swaps).map(lambda iq: key[:iq[0]] + (iq[1],) + key[iq[0] + 1:]),
        st.sampled_from([(), (key[0] + 1, -1) + key[1:], key + (0,)]
                        + ([key[::-1]] if len(set(key)) > 1 else [])),
    )


@st.composite
def _wrong_kwargs(draw):
    kwargs = dict(_VALID)
    field, where = draw(st.sampled_from([(f, None) for f in _WRONG]
                                        + [(m, w) for m in _MAPS for w in ("key", "value")]))
    if where is None:
        kwargs[field] = draw(_WRONG[field])
        return kwargs
    kwargs[field] = mapping = dict(_VALID[field])
    key = draw(st.sampled_from(sorted(mapping)))
    if where == "key":
        mapping[draw(_bad_key(key))] = mapping.pop(key)
    else:
        mapping[key] = draw(_junk("fraction") if field == "asserted_genera" else _junk())
    return kwargs


def test_generated_manifold_data_base_is_valid():
    assert ManifoldData(**_VALID).chern_numbers == _VALID["chern_numbers"]


@settings(deadline=None, max_examples=300)
@given(_wrong_kwargs())
@example({**_VALID, "pontryagin_numbers": {1: 3}})
@example({**_VALID, "real_dim": 4.0})
@example({**_VALID, "chern_numbers": {(1, 3): 3, (2, 2): 9}})
def test_generated_manifold_data_refuses_typed(kwargs):
    with pytest.raises(GenusForgeError):
        ManifoldData(**kwargs)
