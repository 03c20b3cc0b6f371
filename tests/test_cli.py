"""Config parsing, pipeline staging, report formats, exit codes."""

import builtins
import dataclasses
import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from leafatlas import cli, weyl
from leafatlas.cli import (
    JobConfig,
    Report,
    build_config,
    emit,
    main,
    parse_config_text,
    report_to_machine,
    run_job,
)
from leafatlas.typea import MatrixElement, matrix_rows

DATA = Path(__file__).parent / "data"

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
    text = "".join(f"{key} = {val}\n" for key, val in cli._config_values(cfg).items())
    assert build_config(parse_config_text(text)) == cfg


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
    back = Report(**doc)
    assert back == report
    assert report_to_machine(back) == text


def _dumps_oracle(report):
    doc = {
        "provenance": report.provenance,
        "decomposition": report.decomposition,
        "records": report.records,
        "sigma": report.sigma,
        "verification": report.verification,
        "errors": report.errors,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_machine_writer_matches_json_dumps(tmp_path):
    # the writer is pure Python; json.dumps(indent=2, sort_keys=True) is the
    # format it promises, byte for byte
    sample = tmp_path / "f.mat"
    sample.write_text("2 0 0\n0 1 0\n0 0 1/2\n")
    typea = run_job(dataclasses.replace(CG_A2, mode="both", orbit_samples=(str(sample),)))
    assert typea.verification["orbit_samples"] and typea.records
    with_errors = run_job(JobConfig(root_system="A2", r0_mode=f"file:{tmp_path / 'none.mat'}"))
    with_errors.errors.append(
        {
            "stage": "validate",
            "error": "ValueError",
            "detail": 'b\u00e4d "\u03b1\u2081" \\ tab\t\u2014 \U0001d53e',
            "input": "root_system = 'A\u2082'",
            "severity": "input",
        }
    )
    no_decomposition = run_job(JobConfig(root_system="B2", gamma1=(0,), gamma2=(1,), tau=((0, 1),)))
    assert no_decomposition.decomposition is None and no_decomposition.sigma is None
    no_records = dataclasses.replace(run_job(JobConfig(root_system="A2")), records=[])
    assert no_records.decomposition is not None
    for report in (with_errors, typea, no_decomposition, no_records):
        assert report_to_machine(report) == _dumps_oracle(report)
    for bad in (Fraction(1, 2), 0.5):
        with pytest.raises(TypeError, match="not JSON serializable"):
            report_to_machine(cli.Report(provenance={"config": {"r0": bad}}))
        with pytest.raises(TypeError, match="not JSON serializable"):
            report_to_machine(cli.Report(provenance={}, records=[{"orbit_range": [0, bad]}]))


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
# Cartan terms from files


def _r0_job(capsys, argv):
    """Exit code and machine report of a job run through main."""
    code = main(argv + ["--format", "machine"])
    return code, json.loads(capsys.readouterr().out)


def test_r0_from_file_gives_the_report_that_file(capsys):
    # the standard A3 triple with a skew part added by hand to Omega0/2
    path = DATA / "a3_skewed_r0.mat"
    code, doc = _r0_job(capsys, ["--root-system", "A3", "--mode", "gminus", "--r0", f"file:{path}"])
    assert code == 0 and doc["errors"] == []
    assert doc["decomposition"]["r0"] == path.read_text().strip()
    assert doc["decomposition"]["full_h"] is True
    assert len(doc["records"]) == 24


def test_r0_match_theta_pins_theta_to_the_target(capsys):
    # the Coxeter rotation of A2 as the target theta of the standard triple
    path = DATA / "a2_coxeter.mat"
    code, doc = _r0_job(capsys, ["--root-system", "A2", "--r0", f"match_theta:{path}"])
    assert code == 0 and doc["errors"] == []
    assert doc["decomposition"]["theta_cartan"] == path.read_text().strip()
    assert doc["sigma"]["text"] == "Z/3"


def test_r0_file_that_breaks_a_slot_constraint_exits_two(capsys):
    path = DATA / "a2_cg_slot_violation.mat"
    code, doc = _r0_job(
        capsys,
        ["--root-system", "A2", "--gamma1", "1", "--gamma2", "2", "--tau", "1:2",
         "--r0", f"file:{path}"],
    )
    assert code == 2
    assert [(e["stage"], e["error"], e["detail"], e["input"]) for e in doc["errors"]] == [
        ("r0", "Infeasible", "r0 violates the slot constraint for alpha_1", f"r0 = file:{path}")
    ]
    assert doc["decomposition"] is None and doc["records"] == []


def test_missing_r0_file_exits_two(tmp_path, capsys):
    path = tmp_path / "nope.mat"
    code, doc = _r0_job(capsys, ["--root-system", "A2", "--r0", f"file:{path}"])
    assert code == 2
    assert [(e["stage"], e["severity"]) for e in doc["errors"]] == [("r0", "input")]
    assert issubclass(getattr(builtins, doc["errors"][0]["error"]), OSError)
    assert doc["records"] == []


def test_matrix_files_and_texts_share_one_row_reader(tmp_path):
    text = "# a group element\n2 0 0  # first row\n0 1 0\n\n0 0 1/2\n"
    f = tmp_path / "f.mat"
    f.write_text(text)
    assert cli._parse_matrix_file(str(f)) == MatrixElement(matrix_rows(text), "group").entries
    f.write_text("# only a comment\n\n")
    with pytest.raises(ValueError, match=f"^no matrix data in {f}$"):
        cli._parse_matrix_file(str(f))


@pytest.mark.parametrize(
    "stage, argv",
    [
        ("r0", ["--r0", "file:{path}"]),
        ("r0", ["--r0", "match_theta:{path}"]),
        ("typea", ["--typea-checks", "true", "--orbit-sample", "{path}"]),
    ],
    ids=["file", "match_theta", "orbit_sample"],
)
def test_zero_denominator_in_a_matrix_file_is_an_input_error(tmp_path, capsys, stage, argv):
    path = tmp_path / "bad.mat"
    path.write_text("1 0 0\n0 1/0 0\n0 0 1\n")
    argv = [a.format(path=path) for a in argv]
    code, doc = _r0_job(capsys, ["--root-system", "A2", *argv])
    assert code == 2
    assert [(e["stage"], e["error"], e["detail"], e["severity"]) for e in doc["errors"]] == [
        (stage, "ValueError", "zero denominator in matrix entry '1/0'", "input")
    ]


# ---------------------------------------------------------------------------
# input errors name what they reject


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tau", "1", "tau: bad pair '1', expected i:j"),
        ("--tau", "1:2:3", "tau: bad pair '1:2:3', expected i:j"),
        ("--tau", "1:x", "tau: bad index 'x'"),
        ("--gamma1", "1,", "gamma1: bad index ''"),
        ("--gamma2", "0", "gamma2: indices are 1-based, got 0"),
        # int() would read these as 10, 1 and -1
        ("--gamma1", "1_0", "gamma1: bad index '1_0'"),
        ("--gamma1", "+1", "gamma1: bad index '+1'"),
        ("--gamma2", "-1", "gamma2: bad index '-1'"),
        ("--typea-checks", "maybe", "typea_checks: not a boolean: 'maybe'"),
    ],
)
def test_bad_index_tokens_name_the_key_and_token(capsys, flag, value, message):
    assert main(["--root-system", "A2", flag, value]) == 2
    assert capsys.readouterr().err == f"leafatlas: invalid input: {message}\n"


def test_rejected_triple_reports_its_gamma_and_tau_lines():
    cfg = JobConfig(root_system="A2", gamma1=(0,), gamma2=(0,), tau=((0, 1),))
    report = run_job(cfg)
    assert [(e["stage"], e["error"], e["input"]) for e in report.errors] == [
        ("validate", "NotBijective", "gamma1 = 1; gamma2 = 1; tau = 1:2")
    ]


# ---------------------------------------------------------------------------
# entry point


def _write_cfg(tmp_path, text):
    p = tmp_path / "job.cfg"
    p.write_text(text)
    return str(p)


# each config key's flag, in --help order
FLAGS = {
    "root_system": "--root-system",
    "gamma1": "--gamma1",
    "gamma2": "--gamma2",
    "tau": "--tau",
    "r0": "--r0",
    "mode": "--mode",
    "typea_checks": "--typea-checks",
    "orbit_samples": "--orbit-sample",
    "format": "--format",
    "out": "--out",
}


def _every_key(tmp_path):
    """A job that sets every config key, each away from its default where it
    has one: the CG triple of A2 with its theta matched to the Coxeter
    rotation, two orbit samples, a machine report to a file."""
    samples = [tmp_path / "f.mat", tmp_path / "g.mat"]
    samples[0].write_text("2 0 0\n0 1 0\n0 0 1/2\n")
    samples[1].write_text("1 1 0\n0 1 0\n0 0 1\n")
    return {
        "root_system": "A2",
        "gamma1": "1",
        "gamma2": "2",
        "tau": "1:2",
        "r0": f"match_theta:{DATA / 'a2_coxeter.mat'}",
        "mode": "full",
        "typea_checks": "true",
        "orbit_samples": ",".join(map(str, samples)),
        "format": "machine",
        "out": str(tmp_path / "report.json"),
    }


def test_file_flags_and_build_config_give_one_report(tmp_path):
    values = _every_key(tmp_path)
    out = Path(values["out"])
    assert main([_write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in values.items()))]) == 0
    by_file = out.read_text()
    out.unlink()
    argv = [
        arg
        for key, val in values.items()
        for part in (val.split(",") if key == "orbit_samples" else [val])
        for arg in (FLAGS[key], part)
    ]
    assert argv.count("--orbit-sample") == 2
    assert main(argv) == 0
    by_flags = out.read_text()
    by_call = report_to_machine(run_job(build_config(values)))
    assert by_file == by_flags == by_call
    doc = json.loads(by_call)
    assert doc["errors"] == [] and len(doc["records"]) == 9
    assert len(doc["verification"]["orbit_samples"]) == 2
    assert doc["provenance"]["config"] == values


@pytest.mark.parametrize(
    "key, value",
    [
        ("root_system", "A3"),
        ("gamma1", "2"),
        ("gamma1", ""),  # an empty flag value still overrides the file
        ("gamma2", "1"),
        ("tau", "2:1"),
        ("r0", "canonical"),
        ("mode", "gminus"),
        ("typea_checks", "false"),
        ("orbit_samples", "h.mat"),
        ("format", "table"),
        ("out", "other.txt"),
    ],
)
def test_each_flag_overrides_its_file_value(tmp_path, monkeypatch, key, value):
    seen = []

    def job(cfg):
        seen.append(cfg)
        return cli.Report(provenance={"config": {}, "note": ""})

    monkeypatch.setattr(cli, "run_job", job)
    monkeypatch.chdir(tmp_path)
    values = _every_key(tmp_path)
    path = _write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in values.items()))
    assert main([path, FLAGS[key], value]) == 0
    assert seen == [build_config({**values, key: value})]
    assert seen != [build_config(values)]


def test_flags_follow_the_config_keys_in_order():
    parser = cli._build_parser()
    flags = [a.option_strings[-1] for a in parser._actions if a.option_strings]
    assert flags == ["--help", *FLAGS.values()]


@pytest.mark.parametrize(
    "key, value", [("mode", "sideways"), ("mode", "full:x"), ("format", "yaml")]
)
def test_bad_mode_or_format_exits_two_with_one_message(tmp_path, capsys, key, value):
    message = f"leafatlas: invalid input: unknown {key} {value!r}\n"
    assert main(["--root-system", "A2", FLAGS[key], value]) == 2
    assert capsys.readouterr().err == message
    assert main([_write_cfg(tmp_path, f"root_system = A2\n{key} = {value}\n")]) == 2
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "value, message",
    [
        ("canonical:junk", "r0: canonical takes no path, got 'canonical:junk'"),
        ("canonical:", "r0: canonical takes no path, got 'canonical:'"),
        ("file", "r0: file needs a path, as file:<path>, got 'file'"),
        ("file:", "r0: file needs a path, as file:<path>, got 'file:'"),
        ("match_theta", "r0: match_theta needs a path, as match_theta:<path>, got 'match_theta'"),
        ("guess", "unknown r0 mode 'guess'"),
    ],
)
def test_r0_value_is_read_whole(tmp_path, capsys, value, message):
    message = f"leafatlas: invalid input: {message}\n"
    assert main(["--root-system", "A2", "--r0", value]) == 2
    assert capsys.readouterr() == ("", message)
    assert main([_write_cfg(tmp_path, f"root_system = A2\nr0 = {value}\n")]) == 2
    assert capsys.readouterr() == ("", message)


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


def test_pair_bound_fails_before_either_coset_space_is_walked(capsys, monkeypatch):
    # |W^{Gamma1}|·|W^{Gamma2}| comes from the closed form, so the job
    # stops without walking a Weyl orbit
    def no_walk(*args, **kwargs):
        raise AssertionError("a coset space was walked")

    monkeypatch.setattr(weyl, "_orbit", no_walk)
    monkeypatch.setenv("LEAFATLAS_WEYL_BOUND", "100")
    assert main(PAIRS_A3_ARGS) == 2
    doc = json.loads(capsys.readouterr().out)
    assert [e["stage"] for e in doc["errors"]] == ["classification"]
    assert "144 pairs of coset representatives exceed bound 100" in doc["errors"][0]["detail"]


def test_one_sided_job_over_the_default_bound_exits_two_at_once(capsys, monkeypatch):
    # |W(A9)| = 10! > 10^6: the job fails on the orbit size, before a walk
    # that would build 10^6 elements first
    monkeypatch.delenv("LEAFATLAS_WEYL_BOUND", raising=False)
    start = time.perf_counter()
    assert main(["--root-system", "A9", "--mode", "gminus", "--format", "machine"]) == 2
    assert time.perf_counter() - start < 2.0
    doc = json.loads(capsys.readouterr().out)
    assert [e["stage"] for e in doc["errors"]] == ["classification"]
    assert "exceeded bound 1000000" in doc["errors"][0]["detail"]


def test_f4_one_sided_report_matches_its_pinned_digest(capsys):
    # 576 records with Sigma = Z/6 x Z/6; theta has denominators of 3, so
    # sigma_group's integer scale matters.  The pin reads as sha256sum -c input
    pinned = (DATA / "f4_one_sided.sha256").read_text().split()[0]
    argv = [
        "--root-system", "F4", "--gamma1", "1", "--gamma2", "2", "--tau", "1:2",
        "--mode", "gminus", "--format", "machine",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert '"text": "Z/6 x Z/6"' in out
    assert hashlib.sha256(out.encode()).hexdigest() == pinned


def test_central_torus_reports_sigma_as_an_input_error(capsys):
    # no CLI option supplies the exp kernel that a central torus needs
    argv = [
        "--root-system", "A2+T1", "--gamma1", "1", "--gamma2", "2", "--tau", "1:2",
        "--format", "machine",
    ]
    assert main(argv) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["sigma"] is None
    assert [(e["stage"], e["severity"]) for e in doc["errors"]] == [("sigma", "input")]
    assert doc["records"]
