import csv
import io
import json
import os
import subprocess
import sys

import pytest

import truncgrp
from truncgrp import (GroupDesc, conjugacy_classes, enumerate_group,
                      kuelshammer_profile, ring_make)
from truncgrp.cli import ORACLE_GROUPS, main

WITNESS = ["order", "--family", "SL", "-n", "3", "--kind", "poly", "-p", "5",
           "-r", "2", "--matrix", "1,1,0;t,1,1;t,0,1"]


def test_order_command_json(capsys):
    rc = main(["--format", "json"] + WITNESS)
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["command"] == "order"
    assert data["results"]["order"] == 25
    assert data["params"]["p"] == 5
    assert "truncgrp" in data["versions"]


def test_order_command_text(capsys):
    rc = main(WITNESS)
    out = capsys.readouterr().out
    assert rc == 0
    assert "order = 25" in out


def test_csv_output_parses(capsys):
    rc = main(["--format", "csv", "--canonical"] + WITNESS)
    out = capsys.readouterr().out
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    table = dict(rows[1:])
    assert table["results.order"] == "25"
    assert table["timings.total_s"] == "0.0"


def test_canonical_output_is_byte_stable(capsys):
    args = ["--format", "json", "--canonical", "kuelshammer", "--family",
            "SL", "-n", "2", "--kind", "witt", "-p", "2", "-r", "2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_canonical_output_leaves_out_the_cache_dir(tmp_path, capsys, fmt):
    cmd = ["compare", "-n", "2", "-p", "2", "-r", "2"]
    outs = []
    for d in ("a", "b"):
        assert main(["--cache-dir", str(tmp_path / d), "--format", fmt,
                     "--canonical"] + cmd) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "cache_dir" not in outs[0]
    assert main(["--cache-dir", str(tmp_path / "a"), "--format", fmt] + cmd) == 0
    assert str(tmp_path / "a") in capsys.readouterr().out


def test_exit_code_membership_error(capsys):
    # de = 2 is not a unit mod 4, so the matrix is outside GL_2
    rc = main(["order", "--family", "GL", "-n", "2", "--kind", "witt", "-p",
               "2", "-r", "2", "--matrix", "2,0;0,1"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error:" in err


def test_exit_code_non_member_without_unit_pivot(capsys):
    # t * I_10: no entry is a unit, and the determinant t^10 = 0 is found
    # without a factorial expansion
    literal = ";".join(",".join("t" if i == j else "0" for j in range(10)) for i in range(10))
    rc = main(["order", "-n", "10", "--kind", "poly", "-p", "2", "-r", "2",
               "--matrix", literal])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: matrix is not in GL_10(F_2[t]/t^2)\n"


def test_exit_code_parse_error(capsys):
    rc = main(["order", "--family", "GL", "-n", "2", "--kind", "witt", "-p",
               "2", "-r", "2", "--matrix", "1,0;0,zq"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


def test_exit_code_bad_ring_params(capsys):
    rc = main(["ring", "selftest", "--kind", "witt", "-p", "4", "-r", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "not prime" in err


def test_exit_code_arithmetic_limit(capsys):
    # coordinates mod 2^70: the element keys would overflow int64
    rc = main(["classes", "--family", "SL", "-n", "1", "--kind", "witt", "-p", "2",
               "-r", "70"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: matrix does not fit in an int64 key\n"


@pytest.mark.parametrize("args", [
    ["-n", "3", "--kind", "witt", "-p", "2", "-r", "40"],
    ["-n", "2", "--kind", "witt", "-p", "2", "-r", "40", "--strategy", "sampled", "--trials", "5"],
    ["-n", "2", "--kind", "poly", "-p", "2", "-r", "70", "--strategy", "sampled", "--trials", "5"],
    ["--family", "SL", "-n", "3", "--kind", "witt", "-p", "5", "-r", "27", "--strategy", "sampled",
     "--trials", "5"],
    ["--family", "SL", "-n", "2", "--kind", "witt", "-p", "2", "-r", "63", "--strategy", "sampled",
     "--trials", "5"],
], ids=["witt-auto", "witt-sampled", "poly-sampled", "sl-sums", "sl-modulus"])
def test_exponent_beyond_int64(args, capsys):
    # stack sums past int64 (witt), kernel digit indices past int64 (poly),
    # sums of two residues in the SL corner solve past int64 (5^27 > 2^62),
    # and a modulus 2^63 that int64 cannot hold
    rc = main(["--format", "json", "exponent"] + args)
    results = json.loads(capsys.readouterr().out)["results"]
    assert rc == 0
    assert results["value"] <= results["upper_bound"]


@pytest.mark.parametrize("args, message", [
    (["classes", "-n", "2", "--kind", "witt", "-p", "7", "-r", "2"],
     "error: GL_2(Z/49) has 4840416 elements, cap 500000\n"),
    (["exponent", "-n", "3", "--kind", "witt", "-p", "3", "-r", "3",
      "--strategy", "exhaustive"],
     "error: Sylow subgroup of GL_3(Z/27) has 10460353203 elements, cap 20000000\n"),
], ids=["class-cap", "sylow-cap"])
def test_exit_code_size_limit(args, message, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == message


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2


def test_kuelshammer_command_matches_api(capsys):
    rc = main(["--format", "json", "kuelshammer", "--family", "SL", "-n", "2",
               "--kind", "poly", "-p", "2", "-r", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    data = json.loads(out)
    grp = GroupDesc("SL", 2, ring_make("poly", 2, 1, 2))
    part = conjugacy_classes(enumerate_group(grp))
    prof = kuelshammer_profile(part, 2)
    assert data["results"]["dims"] == list(prof.dims)
    assert data["results"]["p_exponent"] == prof.p_exponent
    assert data["results"]["num_classes"] == part.num_classes


def test_exponent_command_strategies(capsys):
    base = ["--format", "json", "exponent", "--family", "SL", "-n", "2",
            "--kind", "witt", "-p", "2", "-r", "2"]
    assert main(base) == 0
    auto = json.loads(capsys.readouterr().out)
    assert auto["results"]["value"] == 4
    assert auto["results"]["method"] == "exhaustive"
    assert main(base + ["--strategy", "sampled", "--trials", "64"]) == 0
    samp = json.loads(capsys.readouterr().out)
    assert samp["results"]["method"] == "sampled"
    assert samp["results"]["value"] <= 4
    assert samp["results"]["value"] <= samp["results"]["upper_bound"]
    assert isinstance(samp["results"]["witness"], str)


def test_exponent_sampled_without_trials_exits_2(capsys):
    # auto resolves to exhaustive here; the check comes before either
    base = ["exponent", "--family", "SL", "-n", "2", "--kind", "witt", "-p",
            "2", "-r", "2", "--strategy"]
    for strategy in ("sampled", "auto", "exhaustive"):
        for trials in ("0", "-3"):
            assert main(base + [strategy, "--trials", trials]) == 2
            assert "error: trials must be >= 1" in capsys.readouterr().err


def test_classes_command_lists_sizes(capsys):
    rc = main(["--format", "json", "classes", "--family", "SL", "-n", "2",
               "--kind", "witt", "-p", "2", "-r", "2"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["results"]["order"] == 48
    assert data["results"]["num_classes"] == 10
    assert sum(data["results"]["class_sizes"]) == 48


def test_classes_of_the_trivial_group_need_no_products(capsys):
    # SL_1 over Z/2^40: with no generators the one class needs no product
    rc = main(["--format", "json", "classes", "--family", "SL", "-n", "1",
               "--kind", "witt", "-p", "2", "-r", "40"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["results"]["num_classes"] == 1


def test_kuelshammer_of_sl1_over_z_2_40_stacks_python_ints(capsys):
    # x^2 of the identity goes through a block of Python ints: sums of
    # products of residues mod 2^40 do not fit int64
    rc = main(["--format", "json", "kuelshammer", "--family", "SL", "-n", "1",
               "--kind", "witt", "-p", "2", "-r", "40"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["results"]["dims"] == [1]
    assert data["results"]["p_regular_classes"] == 1


def test_compare_of_the_trivial_group_indexes_no_kernel(capsys):
    # SL_1 has no free kernel entry: the Sylow walk must not build the
    # 2^39 elements of 2 * Z/2^40
    rc = main(["--format", "json", "compare", "--family", "SL", "-n", "1",
               "-p", "2", "-r", "40"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["results"]["sylow_exponent_a"] == data["results"]["sylow_exponent_b"] == 1


_MAIN = "from truncgrp.cli import main\nsys.exit(main(sys.argv[1:]))"


def _run_python(code, *args, blocked=()):
    """Run code in a fresh interpreter with the blocked modules' entries
    in sys.modules set to None, which makes every import of them raise."""
    src = os.path.dirname(os.path.dirname(truncgrp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("TRUNCGRP_CACHE_DIR", None)
    block = "".join(f"sys.modules[{m!r}] = None\n" for m in blocked)
    return subprocess.run([sys.executable, "-c", "import sys\n" + block + code,
                           *args], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("args", [
    WITNESS,
    ["kuelshammer", "-n", "2", "--kind", "witt", "-p", "3", "-r", "1"],
    ["compare", "-n", "2", "-p", "3", "-r", "2"],
])
def test_commands_run_without_sympy(args):
    proc = _run_python(_MAIN, *args, blocked=["sympy"])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args", [
    ["classes", "-n", "2", "--kind", "witt", "-p", "3", "-r", "2"],
    ["compare", "-n", "2", "-p", "2", "-r", "2"],
])
def test_commands_run_without_scipy(args, capsys):
    args = ["--format", "json", "--canonical"] + args
    proc = _run_python(_MAIN, *args, blocked=["scipy"])
    assert proc.returncode == 0, proc.stderr
    assert main(args) == 0
    assert proc.stdout == capsys.readouterr().out


@pytest.mark.parametrize("blocked", [["scipy"], []], ids=["blocked", "installed"])
def test_cli_import_needs_no_scipy(blocked):
    # scipy installed, the import must still leave it unimported
    proc = _run_python("import truncgrp.cli\n"
                       "assert sys.modules.get('scipy') is None", blocked=blocked)
    assert proc.returncode == 0, proc.stderr


def test_unwritable_cache_dir_warns_and_reports(tmp_path):
    # a regular file where the cache directory should be: mkdir fails
    blocker = tmp_path / "not_a_dir"
    blocker.write_text("")
    cmd = ["--format", "json", "--canonical", "classes", "-n", "1", "--kind",
           "witt", "-p", "3"]
    plain = _run_python(_MAIN, *cmd)
    proc = _run_python(_MAIN, "--cache-dir", str(blocker), *cmd)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == plain.stdout
    assert "cannot write" in proc.stderr and "not cached" in proc.stderr


def test_compare_command_separates_pair(capsys):
    rc = main(["--format", "json", "compare", "--family", "GL", "-n", "2",
               "-p", "5", "-r", "2"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["results"]["verdict"] == "DISTINGUISHED"
    assert data["results"]["in_proven_regime"] is True
    assert data["results"]["profile_a"]["p_exponent"] == 25
    assert data["results"]["profile_b"]["p_exponent"] == 5


def test_ring_selftest_single(capsys):
    rc = main(["--format", "json", "ring", "selftest", "--kind", "poly",
               "-p", "3", "-f", "2", "-r", "2"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["results"]["ok"] is True
    assert data["results"]["count"] == 1
    assert data["results"]["rings"][0]["ok"] is True


def test_verify_single_check(capsys):
    rc = main(["--format", "json", "verify", "lemma-chu"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["results"]["checks"]["lemma-chu"]["ok"] is True


def test_verify_unknown_check(capsys):
    rc = main(["verify", "no-such-check"])
    assert rc == 2


def test_verify_text_has_pass_lines(capsys):
    rc = main(["verify", "rings"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS rings" in out


def test_oracle_registry_is_well_formed():
    assert len(ORACLE_GROUPS) >= 4
    for name, (fam, n, kind, p, f, r, prof_p) in ORACLE_GROUPS.items():
        grp = GroupDesc(fam, n, ring_make(kind, p, f, r))
        assert grp.order() <= 300
        assert prof_p in (2, 3)


def test_cache_dir_flag_writes_cache(tmp_path, capsys):
    args = ["--cache-dir", str(tmp_path), "--format", "json", "classes",
            "--family", "SL", "-n", "2", "--kind", "poly", "-p", "2", "-r", "2"]
    assert main(args) == 0
    capsys.readouterr()
    files = list(tmp_path.glob("*.kkg"))
    assert len(files) == 1
    assert main(args) == 0  # second run loads the cache
    data = json.loads(capsys.readouterr().out)
    assert data["results"]["num_classes"] == 10
