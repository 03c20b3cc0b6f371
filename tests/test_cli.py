"""Config parsing, pipeline staging, report formats, exit codes."""

import json

import pytest

from leafatlas import cli
from leafatlas.cli import (
    JobConfig,
    build_config,
    config_to_text,
    emit,
    main,
    parse_config_text,
    report_from_machine,
    report_to_machine,
    run_job,
)

CG_A2 = JobConfig(
    root_system="A2",
    gamma1=(0,),
    gamma2=(1,),
    tau=((0, 1),),
    mode="gminus",
    typea_checks=True,
)

GOLDEN_TABLE = """\
leafatlas classification report

root_system: A2
gamma1: 1
gamma2: 2
tau: 1:2
r0: canonical
mode: gminus
typea_checks: true
format: table
note: convention: the symmetric part of the Cartan term r0 is fixed to half the inverse Gram tensor (Omega0/2); all tables use this normalization

dimensions:
  dim_g = 8
  dim_g_minus = 6
  dim_g_plus = 6
  dim_h_ort1 = 0
  dim_h_ort2 = 0
  dim_l1 = 4
  dim_l2 = 4
  dim_lprime1_a1 = 4
  dim_lprime2_a2 = 4
  dim_m_minus = 2
  dim_m_plus = 2
  dim_n_minus = 2
  dim_n_plus = 2
  full_h = True
r0:
  1/3 1/3
  0 1/3

sigma: Z/3

records (dressing orbits):
  v     | l | dim_gv | leaf_dim  | coset_dim
  e     | 0 | 4      | d_orb     | d_orb + 6
  s2    | 1 | 2      | d_orb + 4 | d_orb + 10
  s1 s2 | 2 | 2      | d_orb + 6 | d_orb + 12

verification:
  cybe_zero = True
  symmetric_part = True
"""


# ---------------------------------------------------------------------------
# config handling


def test_config_text_round_trip():
    cfg = JobConfig(
        root_system="A3",
        gamma1=(0, 1),
        gamma2=(1, 2),
        tau=((0, 1), (1, 2)),
        mode="full",
        typea_checks=True,
        orbit_samples=("a.mat", "b.mat"),
        format="machine",
        out="report.json",
    )
    assert build_config(parse_config_text(config_to_text(cfg))) == cfg


def test_config_indices_are_one_based():
    cfg = build_config(parse_config_text("root_system = A3\ngamma1 = 2,3\ntau =\n"))
    assert cfg.gamma1 == (1, 2)
    with pytest.raises(ValueError, match="1-based"):
        parse_config_text("root_system = A2\ngamma1 = 0\n") and build_config(
            parse_config_text("root_system = A2\ngamma1 = 0\n")
        )


def test_config_rejections():
    with pytest.raises(ValueError, match="line 2: unknown key 'bogus'"):
        parse_config_text("root_system = A2\nbogus = 1\n")
    with pytest.raises(ValueError, match="root_system is required"):
        build_config({})
    with pytest.raises(ValueError, match="unknown mode"):
        build_config({"root_system": "A2", "mode": "sideways"})
    with pytest.raises(ValueError, match="unknown format"):
        build_config({"root_system": "A2", "format": "yaml"})
    with pytest.raises(ValueError, match="unknown r0 mode"):
        build_config({"root_system": "A2", "r0": "guess"})
    with pytest.raises(ValueError, match="expected key = value"):
        parse_config_text("root_system A2\n")


def test_comments_and_blank_lines_are_ignored():
    cfg = build_config(
        parse_config_text("# setup\n\nroot_system = B2  # rank two\n")
    )
    assert cfg.root_system == "B2"


# ---------------------------------------------------------------------------
# pipeline runs


def test_golden_table_cg_a2():
    report = run_job(CG_A2)
    assert report.errors == []
    assert emit(report, "table") == GOLDEN_TABLE


def test_machine_report_round_trips():
    report = run_job(CG_A2)
    text = report_to_machine(report)
    doc = json.loads(text)
    assert set(doc) == {
        "provenance",
        "decomposition",
        "records",
        "sigma",
        "verification",
        "errors",
    }
    back = report_from_machine(text)
    assert back == report
    assert report_to_machine(back) == text


def test_machine_matrices_are_text_blocks():
    doc = json.loads(report_to_machine(run_job(CG_A2)))
    assert doc["decomposition"]["r0"] == "1/3 1/3\n0 1/3"
    assert doc["decomposition"]["theta_cartan"] == "0 -1\n1 -1"
    assert doc["sigma"]["text"] == "Z/3"
    assert doc["provenance"]["note"].startswith("convention:")


def test_both_mode_emits_both_record_kinds():
    cfg = JobConfig(
        root_system="A2", gamma1=(0,), gamma2=(1,), tau=((0, 1),), mode="both"
    )
    report = run_job(cfg)
    kinds = [r["kind"] for r in report.records]
    assert kinds.count("gminus") == 3
    assert kinds.count("full") == 9
    full = [r for r in report.records if r["kind"] == "full"]
    assert all("v1" in r and "v2" in r and "z_pair_dim" in r for r in full)
    # permutation column present for pure type A
    assert all("perm" in r for r in report.records if r["kind"] == "gminus")


def test_invalid_triple_is_reported_not_raised():
    cfg = JobConfig(root_system="B2", gamma1=(0,), gamma2=(1,), tau=((0, 1),))
    report = run_job(cfg)
    assert len(report.errors) == 1
    err = report.errors[0]
    assert err["stage"] == "validate"
    assert err["error"] == "NotIsometry"
    assert err["severity"] == "input"
    assert report.decomposition is None


def test_orbit_samples_are_read_from_files(tmp_path):
    f = tmp_path / "f.mat"
    f.write_text("2 0 0\n0 1 0\n0 0 1/2\n")
    cfg = JobConfig(
        root_system="A2",
        gamma1=(0,),
        gamma2=(1,),
        tau=((0, 1),),
        typea_checks=True,
        orbit_samples=(str(f),),
    )
    report = run_job(cfg)
    assert report.errors == []
    assert report.verification["orbit_samples"] == [
        {"file": str(f), "orbit_dim": 6}
    ]


def test_missing_sample_file_fails_only_that_stage(tmp_path):
    cfg = JobConfig(
        root_system="A2",
        gamma1=(0,),
        gamma2=(1,),
        tau=((0, 1),),
        typea_checks=True,
        orbit_samples=(str(tmp_path / "nope.mat"),),
    )
    report = run_job(cfg)
    assert [e["stage"] for e in report.errors] == ["typea"]
    assert report.decomposition is not None
    assert report.records


@pytest.mark.parametrize(
    "rows",
    [
        "1 1 0\n0 1 0\n0 0 1\n",
        "1 0 0 0 0\n0 1 0 0 0\n0 0 1 0 0\n0 0 0 2 1\n0 0 0 1 1\n",
    ],
    ids=["3x3", "5x5"],
)
def test_orbit_sample_of_the_wrong_size_is_an_input_error(tmp_path, capsys, rows):
    # A3 needs 4x4 samples; a smaller one used to crash, a larger one to
    # report a meaningless orbit dimension
    f = tmp_path / "f.mat"
    f.write_text(rows)
    args = ["--root-system", "A3", "--typea-checks", "true"]
    args += ["--orbit-sample", str(f), "--format", "machine"]
    assert main(args) == 2
    doc = json.loads(capsys.readouterr().out)
    assert [(e["stage"], e["error"], e["severity"]) for e in doc["errors"]] == [
        ("typea", "ValueError", "input")
    ]
    assert "roots of A" in doc["errors"][0]["detail"]
    assert doc["verification"]["orbit_samples"] == []


def test_orbit_samples_without_typea_checks_are_an_input_error(capsys):
    # the samples are read only by the type-A checks, so without them a
    # sample file would be dropped unread
    args = ["--root-system", "A3", "--mode", "gminus"]
    args += ["--orbit-sample", "does-not-exist.txt", "--format", "machine"]
    assert main(args) == 2
    doc = json.loads(capsys.readouterr().out)
    assert [(e["stage"], e["error"], e["severity"]) for e in doc["errors"]] == [
        ("validate", "ValueError", "input")
    ]
    assert doc["errors"][0]["input"] == "orbit_samples = does-not-exist.txt"
    assert doc["records"] == []


def test_typea_checks_need_a_type():
    cfg = JobConfig(root_system="B2", typea_checks=True)
    report = run_job(cfg)
    assert report.errors[0]["stage"] == "validate"
    assert "single A-type" in report.errors[0]["detail"]


# ---------------------------------------------------------------------------
# entry point


def _write_cfg(tmp_path, text):
    p = tmp_path / "job.cfg"
    p.write_text(text)
    return str(p)


def test_main_success_writes_out_file(tmp_path):
    out = tmp_path / "report.txt"
    path = _write_cfg(
        tmp_path,
        "root_system = A2\ngamma1 = 1\ngamma2 = 2\ntau = 1:2\n"
        f"mode = gminus\ntypea_checks = true\nout = {out}\n",
    )
    assert main([path]) == 0
    written = "".join(
        line
        for line in out.read_text().splitlines(keepends=True)
        if not line.startswith("out: ")
    )
    assert written == GOLDEN_TABLE


def test_main_flag_overrides_config(tmp_path):
    out = tmp_path / "report.json"
    path = _write_cfg(
        tmp_path,
        "root_system = A2\ngamma1 = 1\ngamma2 = 2\ntau = 1:2\nmode = both\n",
    )
    code = main(
        [path, "--mode", "gminus", "--format", "machine", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["provenance"]["config"]["mode"] == "gminus"
    assert all(r["kind"] == "gminus" for r in doc["records"])


def test_main_without_config_file(tmp_path, capsys):
    code = main(["--root-system", "A1", "--mode", "gminus"])
    assert code == 0
    assert "records (dressing orbits):" in capsys.readouterr().out


def test_main_invalid_config_exits_two(tmp_path, capsys):
    path = _write_cfg(tmp_path, "root_system = A2\nbogus = 1\n")
    assert main([path]) == 2
    err = capsys.readouterr().err
    assert "leafatlas: invalid input: line 2: unknown key 'bogus'" in err


def test_main_unwritable_out_path_exits_two(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "x.txt"
    assert main(["--root-system", "A2", "--out", str(out)]) == 2
    assert f"leafatlas: cannot write {out}" in capsys.readouterr().err
    assert not out.exists()


def test_main_reported_input_error_exits_two(tmp_path, capsys):
    path = _write_cfg(
        tmp_path, "root_system = B2\ngamma1 = 1\ngamma2 = 2\ntau = 1:2\n"
    )
    assert main([path]) == 2
    assert "NotIsometry" in capsys.readouterr().out


def test_main_internal_error_exits_three(tmp_path, capsys, monkeypatch):
    def boom(*a, **k):
        raise AssertionError("invariant broke")

    monkeypatch.setattr(cli, "classify_gminus", boom)
    path = _write_cfg(
        tmp_path, "root_system = A2\ngamma1 = 1\ngamma2 = 2\ntau = 1:2\n"
    )
    assert main([path]) == 3
    out = capsys.readouterr().out
    assert "[classification] AssertionError: invariant broke" in out


# the Cremmer-Gervais triple on A3: |W(A3)| = 24, |W^{Gamma1}| = 24/|W(A2)| = 4
CG_A3_ARGS = [
    "--root-system", "A3", "--gamma1", "1,2", "--gamma2", "2,3",
    "--tau", "1:2,2:3", "--mode", "gminus", "--format", "machine",
]


def test_weyl_bound_caps_the_coset_space_not_the_group(capsys, monkeypatch):
    monkeypatch.setenv("LEAFATLAS_WEYL_BOUND", "10")
    assert main(CG_A3_ARGS) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["errors"] == []
    assert len(doc["records"]) == 4


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_weyl_bound_that_is_not_a_positive_integer_fails_validation(capsys, monkeypatch, raw):
    # reported before r0, the decomposition and the classification run
    monkeypatch.setenv("LEAFATLAS_WEYL_BOUND", raw)
    assert main(CG_A3_ARGS) == 2
    doc = json.loads(capsys.readouterr().out)
    assert [(e["stage"], e["input"]) for e in doc["errors"]] == [
        ("validate", f"LEAFATLAS_WEYL_BOUND = {raw}")
    ]
    assert doc["decomposition"] is None and doc["records"] == []


def test_weyl_bound_below_the_coset_space_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("LEAFATLAS_WEYL_BOUND", "3")
    assert main(CG_A3_ARGS) == 2
    doc = json.loads(capsys.readouterr().out)
    assert [e["stage"] for e in doc["errors"]] == ["classification"]
    assert "exceeded bound 3" in doc["errors"][0]["detail"]


# A3 with gamma1 = {1}, gamma2 = {2}: |W^{Gamma}| = 24/2 = 12 on each side
PAIRS_A3_ARGS = [
    "--root-system", "A3", "--gamma1", "1", "--gamma2", "2",
    "--tau", "1:2", "--mode", "full", "--format", "machine",
]


def test_weyl_bound_caps_the_pair_count(capsys, monkeypatch):
    # both coset spaces fit under 100; their 144 pairs do not
    monkeypatch.setenv("LEAFATLAS_WEYL_BOUND", "100")
    assert main(PAIRS_A3_ARGS) == 2
    doc = json.loads(capsys.readouterr().out)
    assert [(e["stage"], e["severity"]) for e in doc["errors"]] == [("classification", "input")]
    assert "144 pairs" in doc["errors"][0]["detail"]
    assert "bound 100" in doc["errors"][0]["detail"]
    assert doc["records"] == []
    monkeypatch.setenv("LEAFATLAS_WEYL_BOUND", "144")
    assert main(PAIRS_A3_ARGS) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["errors"] == [] and len(doc["records"]) == 144
