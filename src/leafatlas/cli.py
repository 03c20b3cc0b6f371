"""Configuration ingestion, pipeline orchestration, and report emission.

Config files are line-oriented ``key = value`` text; lists are comma
separated ("1,2,3"), maps use colon pairs ("1:2,2:3"), ``#`` starts a
comment.  All user-facing simple-root indices are 1-based.  Command-line
flags mirror the config keys and override file values.

The machine format is byte-identical to json.dumps(doc, indent=2,
sort_keys=True) + "\\n" for doc the report's six sections; report_to_machine
writes it directly, escaping strings with json.dumps's own C routine.

Exit codes: 0 success, 2 invalid input, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .bdtriple import solve_r0, validate_triple
from .decomp import compute_decomposition, dimension_summary
from .leafclass import classify_g, classify_gminus, sigma_group
from .linalg import mat
from .rootsys import build_root_system, exp_kernel_lattice
from .typea import (
    MatrixElement,
    check_cybe,
    check_symmetric_part,
    identity_twist,
    matrix_rows,
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


def _parse_index(key: str, tok: str) -> int:
    """One 1-based index token of the key's value, as a 0-based index.
    Only ASCII digits are an index: int() would also take "1_0" or "+1"."""
    tok = tok.strip()
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"{key}: bad index {tok!r}")
    if int(tok) == 0:
        raise ValueError(f"{key}: indices are 1-based, got 0")
    return int(tok) - 1


def _parse_index_list(key: str, text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(_parse_index(key, tok) for tok in text.split(","))


def _parse_pair_map(key: str, text: str) -> tuple[tuple[int, int], ...]:
    if not text.strip():
        return ()
    out = []
    for tok in text.split(","):
        ends = tok.split(":")
        if len(ends) != 2:
            raise ValueError(f"{key}: bad pair {tok.strip()!r}, expected i:j")
        out.append((_parse_index(key, ends[0]), _parse_index(key, ends[1])))
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
        gamma1=_parse_index_list("gamma1", raw.get("gamma1", "")),
        gamma2=_parse_index_list("gamma2", raw.get("gamma2", "")),
        tau=_parse_pair_map("tau", raw.get("tau", "")),
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


def _config_values(cfg: JobConfig) -> dict[str, str]:
    """Each config key's value as a config file writes it (1-based)."""
    return {
        "root_system": cfg.root_system,
        "gamma1": ",".join(str(i + 1) for i in cfg.gamma1),
        "gamma2": ",".join(str(i + 1) for i in cfg.gamma2),
        "tau": ",".join(f"{a + 1}:{b + 1}" for a, b in cfg.tau),
        "r0": cfg.r0_mode,
        "mode": cfg.mode,
        "typea_checks": "true" if cfg.typea_checks else "false",
        "orbit_samples": ",".join(cfg.orbit_samples),
        "format": cfg.format,
        "out": cfg.out or "",
    }


def config_to_text(cfg: JobConfig) -> str:
    """Canonical round-trippable config file text (1-based on disk)."""
    return "".join(f"{key} = {val}\n" for key, val in _config_values(cfg).items())


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
    rows = matrix_rows(Path(path).read_text())
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
    out["simplified_leaf_dim"] = str(rec.simplified_leaf_dim)
    return out


def run_job(cfg: JobConfig) -> Report:
    """Staged pipeline; failures are recorded per stage and independent
    stages still run."""
    values = _config_values(cfg)
    provenance = {
        "config": {key: val.strip() for key, val in values.items()},
        "note": CONVENTION_NOTE,
    }
    report = Report(provenance=provenance)

    def fail(stage: str, exc: BaseException, fragment: str) -> None:
        internal = isinstance(exc, (AssertionError, RuntimeError))
        report.errors.append(
            {
                "stage": stage,
                "error": type(exc).__name__,
                "detail": str(exc),
                "input": fragment,
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
        triple_lines = (f"{key} = {values[key]}" for key in ("gamma1", "gamma2", "tau"))
        fail("validate", e, "; ".join(triple_lines))
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
                # every validated Cartan term has h_ort1 = h_ort2 = 0
                "full_h": True,
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
        # a representative recurs in many records; render its word once,
        # and share the words of strip prefixes across representatives
        memo: dict = {}

        @functools.cache
        def word(w: WeylElement) -> str:
            return " ".join(f"s{i + 1}" for i in reduced_word(rs, w, memo)) or "e"

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


_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_text(value, pad: str, layouts: dict) -> str:
    """json.dumps(value, indent=2, sort_keys=True) at indentation pad, for
    str, bool, int, None, list and str-keyed dict (else TypeError).  layouts
    maps (pad, keys) to the sorted keys' line heads, which records share."""
    kind = type(value)
    if kind is not dict and kind is not list:
        if kind not in _SCALARS:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        return _SCALARS[kind](value)
    if not value:
        return "{}" if kind is dict else "[]"
    inner, parts = pad + "  ", []
    if kind is list:
        for item in value:
            scalar = _SCALARS.get(type(item))
            parts.append(scalar(item) if scalar else _json_text(item, inner, layouts))
        return f"[\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}]"
    keys = tuple(value)
    heads = layouts.get((pad, keys))
    if heads is None:
        heads = layouts[pad, keys] = [(k, f"\n{inner}{_quote(k)}: ") for k in sorted(keys)]
    for key, head in heads:
        item = value[key]
        scalar = _SCALARS.get(type(item))
        parts.append(head + (scalar(item) if scalar else _json_text(item, inner, layouts)))
    return "{" + ",".join(parts) + f"\n{pad}}}"


def report_to_machine(report: Report) -> str:
    doc = {
        "provenance": report.provenance,
        "decomposition": report.decomposition,
        "records": report.records,
        "sigma": report.sigma,
        "verification": report.verification,
        "errors": report.errors,
    }
    return _json_text(doc, "", {}) + "\n"


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
