"""End-to-end command-line checks: JSON output, exit codes, config handling."""

import json
import shutil

import pytest

import torelli.cli as cli
from torelli.cli import main
from torelli.words import catalog


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def conf(tmp_path):
    return str(tmp_path / "t.conf")


@pytest.fixture(scope="session")
def calibrated_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("conf") / "torelli.conf"
    code = main(["--config", str(path), "calibrate", "--g", "2"])
    assert code == 0
    return str(path)


def test_hall_dims(capsys, conf):
    blob = run_json(capsys, "--config", conf, "hall-dims", "--n", "4", "--class", "3")
    assert blob == {"1": 4, "2": 6, "3": 20}


def test_hall_dims_rejects_bad_args(capsys, conf):
    code, _, err = run_cli(capsys, "--config", conf, "hall-dims", "--n", "0", "--class", "2")
    assert code == 2
    assert "positive" in err


def test_homology(capsys, conf):
    blob = run_json(
        capsys, "--config", conf, "homology", "--g", "2", "--k", "3", "--nmax", "2"
    )
    assert blob["dims"] == {"0": 1, "1": 4, "2": 20}
    blob = run_json(
        capsys,
        "--config", conf,
        "homology", "--g", "2", "--k", "3", "--nmax", "2", "--weights",
    )
    assert blob["weights"]["2"] == {"3": 20}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["log", "--g", "2", "--k", "1", "--word", "a1"], "--k"),
        (["homology", "--g", "2", "--k", "1", "--nmax", "2"], "--k"),
        (["homology", "--g", "0", "--k", "3", "--nmax", "2"], "--g"),
        (["homology", "--g", "2", "--k", "3", "--nmax", "-1"], "--nmax"),
        (["cmodb-dim", "--g", "2", "--k", "1"], "--k"),
        (["johnson", "--g", "2", "--k", "1", "--auto", "catalog:sep1"], "--k"),
        (["johnson", "--g", "0", "--k", "3", "--auto", "catalog:sep1"], "--g"),
        (["johnson", "--g", "1", "--k", "3", "--auto", "catalog:sep1"], "--g"),
        (["calibrate", "--g", "1"], "--g"),
    ],
    ids=["log-k1", "homology-k1", "homology-g0", "homology-nmax-1", "cmodb-k1",
         "johnson-k1", "johnson-g0", "johnson-g1-catalog", "calibrate-g1"],
)
def test_out_of_range_arguments_are_usage_errors(capsys, tmp_path, conf, argv, flag):
    code, out, err = run_cli(capsys, "--config", conf, *argv)
    assert code == 2
    assert out == ""
    assert f"{flag} must be >=" in err
    assert not (tmp_path / "t.conf").exists()


def test_other_catalog_errors_are_not_reported_as_genus_errors(capsys, conf, monkeypatch):
    def broken(g):
        raise ValueError("catalog construction failed")

    monkeypatch.setattr(cli, "catalog", broken)
    with pytest.raises(ValueError, match="catalog construction failed"):
        main(["--config", conf, "johnson", "--g", "2", "--k", "2", "--auto", "catalog:P"])
    assert "--g must be" not in capsys.readouterr().err


def test_homology_budget_exhaustion(capsys, tmp_path):
    conf = tmp_path / "t.conf"
    conf.write_text("budget_wedges=10\n")
    code, _, err = run_cli(
        capsys, "--config", str(conf), "homology", "--g", "2", "--k", "4", "--nmax", "3"
    )
    assert code == 2
    assert "budget" in err


def test_cmodb_dim(capsys, conf):
    blob = run_json(capsys, "--config", conf, "cmodb-dim", "--g", "2", "--k", "3")
    assert blob == {"c3_mod_b3": 75}


def test_log(capsys, conf):
    blob = run_json(
        capsys,
        "--config", conf,
        "log", "--g", "2", "--k", "3", "--word", "a1 b1 a1^-1 b1^-1",
    )
    assert blob["k"] == 3
    assert blob["log"] == {"[x1,x2]": "1"}
    nf = blob["normal_form"]
    assert sum(1 for e in nf if e) == 1 and 1 in nf


def test_log_rejects_bad_word(capsys, conf):
    code, _, err = run_cli(
        capsys, "--config", conf, "log", "--g", "2", "--k", "3", "--word", "zz"
    )
    assert code == 2
    assert "parse" in err
    # a3 is letter 5, beyond the four generators of genus 2
    code, out, err = run_cli(
        capsys, "--config", conf, "log", "--g", "2", "--k", "3", "--word", "a3 b1"
    )
    assert code == 2
    assert out == ""
    assert "a3" in err and "out of range" in err


def test_johnson_identity_is_zero(capsys, conf):
    blob = run_json(
        capsys,
        "--config", conf,
        "johnson", "--g", "2", "--k", "2", "--auto", "catalog:t1 t1^-1",
    )
    assert blob["k"] == 2
    assert all(v == {} for v in blob["values"].values())


def test_johnson_sep1(capsys, conf):
    blob = run_json(
        capsys,
        "--config", conf,
        "johnson", "--g", "2", "--k", "3", "--auto", "catalog:sep1",
    )
    assert blob["values"]["a2"] == {} and blob["values"]["b2"] == {}
    assert blob["values"]["a1"] and blob["values"]["b1"]


def test_johnson_non_torelli_exits_one(capsys, conf):
    code, _, err = run_cli(
        capsys, "--config", conf, "johnson", "--g", "2", "--k", "2", "--auto", "catalog:t1"
    )
    assert code == 1
    assert "Torelli" in err


def test_unknown_catalog_name(capsys, conf):
    code, _, err = run_cli(
        capsys, "--config", conf, "johnson", "--g", "2", "--k", "2", "--auto", "catalog:zz"
    )
    assert code == 2
    assert "available" in err


def test_auto_spec_neither_file_nor_catalog(capsys, tmp_path, conf):
    code, _, err = run_cli(
        capsys, "--config", conf,
        "johnson", "--g", "2", "--k", "2", "--auto", str(tmp_path / "nope.txt"),
    )
    assert code == 2


def test_verify_requires_calibration(capsys, conf):
    code, _, err = run_cli(capsys, "--config", conf, "verify", "--g", "2", "--k", "3")
    assert code == 2
    assert "calibrate" in err


def test_calibrate_and_verify(capsys, tmp_path, calibrated_config):
    stored = dict(
        line.split("=", 1)
        for line in open(calibrated_config).read().splitlines()
        if line
    )
    assert stored["epsilon"] in ("1", "-1") and stored["delta"] in ("1", "-1")

    suite = tmp_path / "suite.txt"
    suite.write_text("conj_l  # boundary conjugation\nsep1\n")
    blob = run_json(
        capsys,
        "--config", calibrated_config,
        "verify", "--g", "2", "--k", "3", "--suite", str(suite),
    )
    assert blob["ok"] is True
    assert [r["mapping_class"] for r in blob["results"]] == ["conj_l", "sep1"]
    assert all(r["ok"] for r in blob["results"])


def test_verify_fails_with_flipped_sign(capsys, tmp_path, calibrated_config):
    conf = tmp_path / "flipped.conf"
    shutil.copy(calibrated_config, conf)
    text = conf.read_text()
    old = next(ln for ln in text.splitlines() if ln.startswith("delta="))
    flipped = "delta=" + str(-int(old.split("=")[1]))
    conf.write_text(text.replace(old, flipped))

    suite = tmp_path / "suite.txt"
    suite.write_text("conj_l\n")
    code, out, _ = run_cli(
        capsys,
        "--config", str(conf),
        "verify", "--g", "2", "--k", "3", "--suite", str(suite),
    )
    assert code == 1
    blob = json.loads(out)
    assert blob["ok"] is False
    assert blob["results"][0]["difference"]


def test_calibrate_refuses_overwrite(capsys, calibrated_config):
    code, _, err = run_cli(capsys, "--config", calibrated_config, "calibrate", "--g", "2")
    assert code == 2
    assert "--force" in err
    blob = run_json(capsys, "--config", calibrated_config, "calibrate", "--g", "2", "--force")
    assert blob["epsilon"] in (1, -1) and blob["delta"] in (1, -1)


def test_morita(capsys, tmp_path, calibrated_config):
    blob = run_json(
        capsys,
        "--config", calibrated_config,
        "morita", "--g", "2", "--k", "3", "--auto", "catalog:sep1",
    )
    assert blob["k"] == 3
    assert blob["cycle_terms"] == 28
    assert blob["d2_invariant"]["a1"]
    assert "cycle" not in blob
    blob = run_json(
        capsys,
        "--config", calibrated_config,
        "morita", "--g", "2", "--k", "3", "--auto", "catalog:sep1", "--cycle",
    )
    assert len(blob["cycle"]) == 28


def test_morita_chain_term_budget(capsys, tmp_path, calibrated_config):
    conf = tmp_path / "budget.conf"
    lines = open(calibrated_config).read().splitlines()
    lines = [ln for ln in lines if not ln.startswith("budget_chain_terms=")]
    conf.write_text("\n".join(lines + ["budget_chain_terms=10"]) + "\n")
    code, out, err = run_cli(
        capsys,
        "--config", str(conf),
        "morita", "--g", "2", "--k", "3", "--auto", "catalog:conj_l",
    )
    assert code == 2
    assert out == ""
    assert "158 terms" in err and "budget_chain_terms" in err
    # verify passes the same budget and stops before printing anything
    code, out, err = run_cli(
        capsys,
        "--config", str(conf),
        "verify", "--g", "2", "--k", "3", "--suite", "default",
    )
    assert code == 2
    assert out == ""
    assert "158 terms" in err and "budget_chain_terms" in err


def test_morita_rejects_a_class_that_moves_the_boundary_word(
    capsys, tmp_path, calibrated_config
):
    spec = tmp_path / "f.aut"
    spec.write_text("a1 -> a2 a1 a2^-1\n")
    code, out, err = run_cli(
        capsys,
        "--config", calibrated_config,
        "morita", "--g", "2", "--k", "2", "--auto", str(spec),
    )
    assert code == 1
    assert out == ""
    assert "boundary word" in err


def test_morita_requires_calibration(capsys, conf):
    code, _, err = run_cli(
        capsys, "--config", conf, "morita", "--g", "2", "--k", "3", "--auto", "catalog:sep1"
    )
    assert code == 2


def test_output_is_deterministic(capsys, conf):
    argv = ["--config", conf, "johnson", "--g", "2", "--k", "3", "--auto", "catalog:conj_l"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_suite_errors(capsys, tmp_path, conf):
    code, _, err = run_cli(
        capsys, "--config", conf, "verify", "--g", "2", "--k", "3",
        "--suite", str(tmp_path / "missing.txt"),
    )
    assert code == 2
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    conf2 = tmp_path / "c.conf"
    conf2.write_text("epsilon=-1\ndelta=-1\n")
    code, _, err = run_cli(
        capsys, "--config", str(conf2), "verify", "--g", "2", "--k", "3",
        "--suite", str(empty),
    )
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("sep1^2\n")
    code, _, err = run_cli(
        capsys, "--config", str(conf2), "verify", "--g", "2", "--k", "3",
        "--suite", str(bad),
    )
    assert code == 2


def test_load_suite_builds_the_catalog_once(monkeypatch):
    calls = []

    def counting_catalog(g):
        calls.append(g)
        return catalog(g)

    monkeypatch.setattr(cli, "catalog", counting_catalog)
    suite = cli.load_suite("default", 2)
    assert [label for label, _ in suite] == cli.DEFAULT_SUITE
    assert calls == [2]


def test_config_parse_errors(capsys, tmp_path):
    conf = tmp_path / "t.conf"
    conf.write_text("just some words\n")
    code, _, err = run_cli(capsys, "--config", str(conf), "cmodb-dim", "--g", "2", "--k", "3")
    assert code == 2
    conf.write_text("budget_wedges=-5\n")
    code, _, err = run_cli(capsys, "--config", str(conf), "cmodb-dim", "--g", "2", "--k", "3")
    assert code == 2


def test_automorphism_file_input(capsys, tmp_path, conf):
    # describe sep1 by its generator images, then feed the file back in
    from torelli.words import catalog, format_word

    phi = catalog(2)["sep1"]
    lines = [
        f"{name} -> {format_word(img)}"
        for name, img in zip(("a1", "b1", "a2", "b2"), phi.images)
    ]
    path = tmp_path / "sep1.txt"
    path.write_text("\n".join(lines) + "\n")
    blob = run_json(
        capsys, "--config", conf, "johnson", "--g", "2", "--k", "3", "--auto", str(path)
    )
    direct = run_json(
        capsys, "--config", conf, "johnson", "--g", "2", "--k", "3", "--auto", "catalog:sep1"
    )
    assert blob["values"] == direct["values"]

    path.write_text("a9 -> a1\n")
    code, _, err = run_cli(
        capsys, "--config", conf, "johnson", "--g", "2", "--k", "3", "--auto", str(path)
    )
    assert code == 2
