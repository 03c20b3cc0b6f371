"""Configuration ingestion, pipeline orchestration, and report emission.

Config files are line-oriented ``key = value`` text; lists are comma
separated ("1,2,3"), maps use colon pairs ("1:2,2:3"), ``#`` starts a
comment.  All user-facing simple-root indices are 1-based.  Command-line
flags mirror the config keys and override file values.

Exit codes: 0 success, 2 invalid input, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .bdtriple import solve_r0, validate_triple
from .decomp import (
    DegenerateComplement,
    compute_decomposition,
    dimension_summary,
    full_h_predicate,
)
from .leafclass import classify_g, classify_gminus, sigma_group
from .linalg import mat
from .rootsys import build_root_system, exp_kernel_lattice
from .typea import (
    MatrixElement,
    check_cybe,
    check_symmetric_part,
    identity_twist,
    matrix_to_text,
    realize_r,
    tc_orbit_dim,
    weyl_to_perm,
)
from .weyl import WeylElement, _weyl_bound, reduced_word

CONVENTION_NOTE = (
    "convention: the symmetric part of the Cartan term r0 is fixed to half "
    "the inverse Gram tensor (Omega0/2); all tables use this normalization"
)

_CONFIG_KEYS = (
    "root_system",
    "gamma1",
    "gamma2",
    "tau",
    "r0",
    "mode",
    "typea_checks",
    "orbit_samples",
    "format",
    "out",
)


@dataclass
class JobConfig:
    """Internal form: 0-based indices, parsed structures."""

    root_system: str
    gamma1: tuple[int, ...] = ()
    gamma2: tuple[int, ...] = ()
    tau: tuple[tuple[int, int], ...] = ()
    r0_mode: str = "canonical"  # canonical | file:<path> | match_theta:<path>
    mode: str = "both"
    typea_checks: bool = False
    orbit_samples: tuple[str, ...] = ()
    format: str = "table"
    out: str | None = None


def _parse_index_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for tok in text.split(","):
        i = int(tok.strip())
        if i < 1:
            raise ValueError(f"indices are 1-based, got {i}")
        out.append(i - 1)
    return tuple(out)


def _parse_pair_map(text: str) -> tuple[tuple[int, int], ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for tok in text.split(","):
        a, _, b = tok.partition(":")
        i, j = int(a.strip()), int(b.strip())
        if i < 1 or j < 1:
            raise ValueError(f"indices are 1-based, got {i}:{j}")
        out.append((i - 1, j - 1))
    return tuple(out)


def _parse_bool(text: str) -> bool:
    val = text.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_config_text(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected key = value")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    return raw


def build_config(raw: dict[str, str]) -> JobConfig:
    if "root_system" not in raw:
        raise ValueError("root_system is required")
    cfg = JobConfig(
        root_system=raw["root_system"],
        gamma1=_parse_index_list(raw.get("gamma1", "")),
        gamma2=_parse_index_list(raw.get("gamma2", "")),
        tau=_parse_pair_map(raw.get("tau", "")),
        r0_mode=raw.get("r0", "canonical"),
        mode=raw.get("mode", "both"),
        typea_checks=_parse_bool(raw.get("typea_checks", "false")),
        orbit_samples=tuple(
            p.strip() for p in raw.get("orbit_samples", "").split(",") if p.strip()
        ),
        format=raw.get("format", "table"),
        out=raw.get("out") or None,
    )
    if cfg.mode not in ("gminus", "full", "both"):
        raise ValueError(f"unknown mode {cfg.mode!r}")
    if cfg.format not in ("table", "machine"):
        raise ValueError(f"unknown format {cfg.format!r}")
    head = cfg.r0_mode.split(":", 1)[0]
    if head not in ("canonical", "file", "match_theta"):
        raise ValueError(f"unknown r0 mode {cfg.r0_mode!r}")
    return cfg


def config_to_text(cfg: JobConfig) -> str:
    """Canonical round-trippable config file text (1-based on disk)."""
    lines = [f"root_system = {cfg.root_system}"]
    lines.append("gamma1 = " + ",".join(str(i + 1) for i in cfg.gamma1))
    lines.append("gamma2 = " + ",".join(str(i + 1) for i in cfg.gamma2))
    lines.append("tau = " + ",".join(f"{a + 1}:{b + 1}" for a, b in cfg.tau))
    lines.append(f"r0 = {cfg.r0_mode}")
    lines.append(f"mode = {cfg.mode}")
    lines.append(f"typea_checks = {'true' if cfg.typea_checks else 'false'}")
    lines.append("orbit_samples = " + ",".join(cfg.orbit_samples))
    lines.append(f"format = {cfg.format}")
    lines.append(f"out = {cfg.out or ''}")
    return "\n".join(lines) + "\n"


@dataclass
class Report:
    """Primitive-typed (JSON-shaped) result of a pipeline run."""

    provenance: dict
    decomposition: dict | None = None
    records: list = field(default_factory=list)
    sigma: dict | None = None
    verification: dict | None = None
    errors: list = field(default_factory=list)


def _parse_matrix_file(path: str):
    rows = []
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append(tuple(Fraction(tok) for tok in line.split()))
    if not rows:
        raise ValueError(f"no matrix data in {path}")
    return mat(rows)


def _is_pure_type_a(rs) -> bool:
    return (
        len(rs.components) == 1
        and rs.components[0][0] == "A"
        and rs.torus_rank == 0
    )


def _record_dict(word, rec, pure_a: bool) -> dict:
    stable = rec.stable
    out = {
        "kind": "gminus" if rec.v is not None else "full",
        "length": 0,
        "dim_stable": stable.derived_dim + stable.center_dim,
        "root_set_size": len(stable.root_set),
        "cong_dim": stable.cong_dim,
        "orbit_dim": rec.orbit_dim,
        "orbit_range": list(rec.orbit_range),
        "leaf_dim": str(rec.leaf_dim),
        "leaf_const": rec.leaf_dim.constant,
        "coset_dim": str(rec.coset_dim),
        "coset_const": rec.coset_dim.constant,
    }
    if rec.v is not None:
        out["v"] = word(rec.v)
        out["length"] = rec.v.length
        if pure_a:
            out["perm"] = " ".join(str(i + 1) for i in weyl_to_perm(rec.v))
    else:
        out["v1"] = word(rec.v1)
        out["v2"] = word(rec.v2)
        out["length"] = rec.v1.length + rec.v2.length
        out["z_pair_dim"] = stable.z_pair_dim
    if rec.simplified_leaf_dim is not None:
        out["simplified_leaf_dim"] = str(rec.simplified_leaf_dim)
    return out


def run_job(cfg: JobConfig) -> Report:
    """Staged pipeline; failures are recorded per stage and independent
    stages still run."""
    provenance = {
        "config": {
            line.partition("=")[0].strip(): line.partition("=")[2].strip()
            for line in config_to_text(cfg).strip().split("\n")
        },
        "note": CONVENTION_NOTE,
    }
    report = Report(provenance=provenance)

    def fail(stage: str, exc: BaseException, fragment: str) -> None:
        internal = isinstance(exc, AssertionError) or (
            isinstance(exc, RuntimeError) and not isinstance(exc, DegenerateComplement)
        )
        report.errors.append(
            {
                "stage": stage,
                "error": type(exc).__name__,
                "detail": str(exc),
                "input": fragment.splitlines()[0] if fragment else "",
                "severity": "internal" if internal else "input",
            }
        )

    # validate
    try:
        rs = build_root_system(cfg.root_system)
    except ValueError as e:
        fail("validate", e, f"root_system = {cfg.root_system}")
        return report
    pure_a = _is_pure_type_a(rs)
    if cfg.typea_checks and not pure_a:
        fail(
            "validate",
            ValueError("typea_checks requires a single A-type system"),
            f"root_system = {cfg.root_system}",
        )
        return report
    if cfg.orbit_samples and not cfg.typea_checks:
        fail(
            "validate",
            ValueError("orbit_samples require typea_checks"),
            "orbit_samples = " + ",".join(cfg.orbit_samples),
        )
        return report
    try:
        triple = validate_triple(rs, cfg.gamma1, cfg.gamma2, cfg.tau)
    except ValueError as e:
        fail("validate", e, config_to_text(cfg).strip())
        return report
    try:
        _weyl_bound()
    except ValueError as e:
        fail("validate", e, f"LEAFATLAS_WEYL_BOUND = {os.environ['LEAFATLAS_WEYL_BOUND']}")
        return report

    # r0
    r0 = None
    try:
        head, _, tail = cfg.r0_mode.partition(":")
        if head == "canonical":
            r0 = solve_r0(rs, triple, "canonical")
        elif head == "file":
            r0 = solve_r0(rs, triple, "from_file", matrix=_parse_matrix_file(tail))
        else:
            r0 = solve_r0(
                rs, triple, "match_theta", theta_target=_parse_matrix_file(tail)
            )
    except (ValueError, OSError) as e:
        fail("r0", e, f"r0 = {cfg.r0_mode}")

    # decomposition
    d = None
    if r0 is not None:
        try:
            d = compute_decomposition(rs, triple, r0)
            dims = dimension_summary(rs, triple, d)
            report.decomposition = {
                "dims": dims,
                "full_h": full_h_predicate(d),
                "r0": matrix_to_text(r0.r0),
                "f_cartan": matrix_to_text(d.f_cartan),
                "theta_cartan": matrix_to_text(d.theta_cartan),
            }
        except (ValueError, RuntimeError) as e:
            fail("decomposition", e, f"r0 = {cfg.r0_mode}")
            d = None

    # sigma
    if d is not None:
        try:
            sigma = sigma_group(d, exp_kernel_lattice(rs))
            report.sigma = {
                "invariant_factors": list(sigma.invariant_factors),
                "free_rank": sigma.free_rank,
                "text": str(sigma),
            }
        except ValueError as e:
            fail("sigma", e, f"root_system = {cfg.root_system}")

    # classification
    if d is not None:
        # a representative recurs in many records; render its word once
        words: dict[WeylElement, str] = {}

        def word(w: WeylElement) -> str:
            if w not in words:
                words[w] = " ".join(f"s{i + 1}" for i in reduced_word(rs, w)) or "e"
            return words[w]

        try:
            if cfg.mode in ("gminus", "both"):
                for rec in classify_gminus(rs, triple, d):
                    report.records.append(_record_dict(word, rec, pure_a))
            if cfg.mode in ("full", "both"):
                for rec in classify_g(rs, triple, d):
                    report.records.append(_record_dict(word, rec, pure_a))
        except (ValueError, RuntimeError, AssertionError) as e:
            fail("classification", e, f"mode = {cfg.mode}")

    # type-A verification
    if cfg.typea_checks and r0 is not None:
        try:
            r = realize_r(rs.rank, triple, r0)
            verification = {
                "cybe_zero": check_cybe(r).is_zero(),
                "symmetric_part": check_symmetric_part(r),
                "orbit_samples": [],
            }
            all_roots = list(rs.all_roots)
            for path in cfg.orbit_samples:
                try:
                    f = MatrixElement(_parse_matrix_file(path), "group")
                    dim = tc_orbit_dim(f, identity_twist(), all_roots)
                    verification["orbit_samples"].append(
                        {"file": path, "orbit_dim": dim}
                    )
                except (ValueError, OSError) as e:
                    fail("typea", e, f"orbit_sample = {path}")
            report.verification = verification
        except (ValueError, AssertionError) as e:
            fail("typea", e, "typea_checks = true")

    return report


# ---------------------------------------------------------------------------
# emission


def _table(report: Report) -> str:
    lines = ["leafatlas classification report", ""]
    cfg = report.provenance["config"]
    for key in _CONFIG_KEYS:
        if key in cfg and cfg[key]:
            lines.append(f"{key}: {cfg[key]}")
    lines.append(f"note: {report.provenance['note']}")
    if report.errors:
        lines.append("")
        lines.append("errors:")
        for err in report.errors:
            lines.append(
                f"  [{err['stage']}] {err['error']}: {err['detail']}"
                f" (input: {err['input']})"
            )
    if report.decomposition is not None:
        lines.append("")
        lines.append("dimensions:")
        for key in sorted(report.decomposition["dims"]):
            lines.append(f"  {key} = {report.decomposition['dims'][key]}")
        lines.append(f"  full_h = {report.decomposition['full_h']}")
        lines.append("r0:")
        for row in report.decomposition["r0"].split("\n"):
            lines.append(f"  {row}")
    if report.sigma is not None:
        lines.append("")
        lines.append(f"sigma: {report.sigma['text']}")
    for kind, title in (("gminus", "dressing orbits"), ("full", "double cosets")):
        rows = [r for r in report.records if r["kind"] == kind]
        if not rows:
            continue
        lines.append("")
        lines.append(f"records ({title}):")
        if kind == "gminus":
            header = ["v", "l", "dim_gv", "leaf_dim", "coset_dim"]
            cells = [
                [r["v"], str(r["length"]), str(r["dim_stable"]),
                 r["leaf_dim"], r["coset_dim"]]
                for r in rows
            ]
        else:
            header = ["v1", "v2", "l", "dim_gv", "leaf_dim", "coset_dim"]
            cells = [
                [r["v1"], r["v2"], str(r["length"]), str(r["dim_stable"]),
                 r["leaf_dim"], r["coset_dim"]]
                for r in rows
            ]
        widths = [
            max(len(header[i]), *(len(c[i]) for c in cells)) if cells else len(header[i])
            for i in range(len(header))
        ]
        lines.append(
            "  " + " | ".join(h.ljust(w) for h, w in zip(header, widths))
        )
        for c in cells:
            lines.append(
                "  " + " | ".join(x.ljust(w) for x, w in zip(c, widths))
            )
    if report.verification is not None:
        lines.append("")
        lines.append("verification:")
        lines.append(f"  cybe_zero = {report.verification['cybe_zero']}")
        lines.append(
            f"  symmetric_part = {report.verification['symmetric_part']}"
        )
        for s in report.verification["orbit_samples"]:
            lines.append(f"  orbit_dim[{s['file']}] = {s['orbit_dim']}")
    return "\n".join(line.rstrip() for line in lines) + "\n"


def report_to_machine(report: Report) -> str:
    doc = {
        "provenance": report.provenance,
        "decomposition": report.decomposition,
        "records": report.records,
        "sigma": report.sigma,
        "verification": report.verification,
        "errors": report.errors,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_from_machine(text: str) -> Report:
    doc = json.loads(text)
    return Report(
        provenance=doc["provenance"],
        decomposition=doc["decomposition"],
        records=doc["records"],
        sigma=doc["sigma"],
        verification=doc["verification"],
        errors=doc["errors"],
    )


def emit(report: Report, fmt: str) -> str:
    if fmt == "table":
        return _table(report)
    if fmt == "machine":
        return report_to_machine(report)
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="leafatlas",
        description="classification pipeline for factorizable Poisson structures",
    )
    p.add_argument("config", nargs="?", help="config file (key = value lines)")
    p.add_argument("--root-system", dest="root_system")
    p.add_argument("--gamma1")
    p.add_argument("--gamma2")
    p.add_argument("--tau")
    p.add_argument("--r0")
    p.add_argument("--mode", choices=("gminus", "full", "both"))
    p.add_argument("--typea-checks", dest="typea_checks")
    p.add_argument(
        "--orbit-sample",
        dest="orbit_samples",
        action="append",
        metavar="FILE",
    )
    p.add_argument("--format", choices=("table", "machine"))
    p.add_argument("--out")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw: dict[str, str] = {}
        if args.config:
            raw = parse_config_text(Path(args.config).read_text())
        for key in _CONFIG_KEYS:
            val = getattr(args, key)
            if key == "orbit_samples":
                if val:
                    raw[key] = ",".join(val)
            elif val is not None:
                raw[key] = val
        cfg = build_config(raw)
    except (ValueError, OSError) as e:
        print(f"leafatlas: invalid input: {e}", file=sys.stderr)
        return 2

    report = run_job(cfg)
    text = emit(report, cfg.format)
    if cfg.out:
        try:
            Path(cfg.out).write_text(text)
        except OSError as e:
            print(f"leafatlas: cannot write {cfg.out}: {e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)

    if any(e["severity"] == "internal" for e in report.errors):
        return 3
    if report.errors:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
