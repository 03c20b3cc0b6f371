"""Configuration ingestion, pipeline orchestration, and report emission.

Config files are line-oriented ``key = value`` text; lists are comma
separated ("1,2,3"), maps use colon pairs ("1:2,2:3"), ``#`` starts a
comment.  All user-facing simple-root indices are 1-based.  _KEYS declares
each config key once: its JobConfig field, how its value is read and written
back, and so its command-line flag, which overrides the file value.

The machine format is byte-identical to json.dumps(doc, indent=2,
sort_keys=True) + "\\n" for doc the report's six sections; report_to_machine
writes it directly, escaping strings with json.dumps's own C routine.

Exit codes: 0 success, 2 invalid input, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable

from .bdtriple import CartanTerm, solve_r0, validate_triple
from .decomp import compute_decomposition, dimension_summary
from .leafclass import classify_g, classify_gminus, sigma_group
from .linalg import mat
from .rootsys import build_root_system, exp_kernel_lattice
from .typea import (
    MatrixElement,
    _is_pure_type_a,
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


def _parse_bool(key: str, text: str) -> bool:
    val = text.strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{key}: not a boolean: {text!r}")


def _choice(*names: str) -> Callable[[str, str], str]:
    """The reader of a key whose value is one of names, spelled exactly."""

    def read(key: str, text: str) -> str:
        if text not in names:
            raise ValueError(f"unknown {key} {text!r}")
        return text

    return read


def _parse_r0(key: str, text: str) -> str:
    """canonical, or file:<path> or match_theta:<path> with a path."""
    head, sep, path = text.partition(":")
    if head not in ("canonical", "file", "match_theta"):
        raise ValueError(f"unknown r0 mode {text!r}")
    if head == "canonical" and sep:
        raise ValueError(f"{key}: canonical takes no path, got {text!r}")
    if head != "canonical" and not path.strip():
        raise ValueError(f"{key}: {head} needs a path, as {head}:<path>, got {text!r}")
    return text


def _write_indices(indices: tuple[int, ...]) -> str:
    return ",".join(str(i + 1) for i in indices)


# Every config key, in file, report and flag order: its JobConfig field, its
# reader (key, value text) -> field value, and its writer back to 1-based
# text.  The flag of a key is --key with "-" for "_", except the repeatable
# --orbit-sample FILE.
_KEYS = {
    "root_system": ("root_system", lambda key, text: text, str),
    "gamma1": ("gamma1", _parse_index_list, _write_indices),
    "gamma2": ("gamma2", _parse_index_list, _write_indices),
    "tau": ("tau", _parse_pair_map, lambda tau: ",".join(f"{a + 1}:{b + 1}" for a, b in tau)),
    "r0": ("r0_mode", _parse_r0, str),
    "mode": ("mode", _choice("gminus", "full", "both"), str),
    "typea_checks": ("typea_checks", _parse_bool, lambda on: "true" if on else "false"),
    "orbit_samples": (
        "orbit_samples",
        lambda key, text: tuple(p.strip() for p in text.split(",") if p.strip()),
        ",".join,
    ),
    "format": ("format", _choice("table", "machine"), str),
    "out": ("out", lambda key, text: text or None, lambda out: out or ""),
}


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
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    return raw


def build_config(raw: dict[str, str]) -> JobConfig:
    """JobConfig of the keys present in raw; JobConfig defaults the rest."""
    if "root_system" not in raw:
        raise ValueError("root_system is required")
    return JobConfig(
        **{field: read(key, raw[key]) for key, (field, read, _) in _KEYS.items() if key in raw}
    )


def _config_values(cfg: JobConfig) -> dict[str, str]:
    """Each config key's value as a config file writes it (1-based)."""
    return {key: write(getattr(cfg, field)) for key, (field, _, write) in _KEYS.items()}


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


def _record_dict(word, rec, pure_a: bool) -> dict:
    stable = rec.stable
    out = {
        "kind": "gminus" if rec.v is not None else "full",
        "length": 0,
        "dim_stable": stable.derived_dim + stable.center_dim,
        "root_set_size": len(stable.root_set),
        "cong_dim": stable.cong_dim,
        "orbit_dim": "d_orb",
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
        out["z_pair_dim"] = stable.moduli_dim
    out["simplified_leaf_dim"] = out["leaf_dim"]
    return out


def run_job(cfg: JobConfig) -> Report:
    """Staged pipeline; failures are recorded per stage and independent
    stages still run.  validate checks each input once, in one pass that
    stops at the first bad one; r0 builds the Cartan term and passes it once
    through compute_decomposition, and only a term that passes reaches the
    sigma, classification and typea stages."""
    values = _config_values(cfg)
    config = {key: val.strip() for key, val in values.items()}
    report = Report(provenance={"config": config, "note": CONVENTION_NOTE})

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

    # validate: fragment names the input being checked
    fragment = f"root_system = {cfg.root_system}"
    try:
        rs = build_root_system(cfg.root_system)
        pure_a = _is_pure_type_a(rs)
        if cfg.typea_checks and not pure_a:
            raise ValueError("typea_checks requires a single A-type system")
        fragment = "orbit_samples = " + ",".join(cfg.orbit_samples)
        if cfg.orbit_samples and not cfg.typea_checks:
            raise ValueError("orbit_samples require typea_checks")
        fragment = "; ".join(f"{key} = {values[key]}" for key in ("gamma1", "gamma2", "tau"))
        triple = validate_triple(rs, cfg.gamma1, cfg.gamma2, cfg.tau)
        fragment = "LEAFATLAS_WEYL_BOUND = " + os.environ.get("LEAFATLAS_WEYL_BOUND", "")
        _weyl_bound()
    except ValueError as e:
        fail("validate", e, fragment)
        return report

    # r0: build the term, then pass it through compute_decomposition, its
    # one gate; every later stage runs only once d is set
    d = None
    try:
        head, _, tail = cfg.r0_mode.partition(":")
        if head == "canonical":
            r0 = solve_r0(rs, triple, "canonical")
        elif head == "file":
            r0 = CartanTerm(_parse_matrix_file(tail))
        else:
            r0 = solve_r0(rs, triple, "match_theta", theta_target=_parse_matrix_file(tail))
        d = compute_decomposition(rs, triple, r0)
        report.decomposition = {
            "dims": dimension_summary(rs, triple, d),
            # every validated Cartan term has h_ort1 = h_ort2 = 0
            "full_h": True,
            "r0": matrix_to_text(r0.r0),
            "f_cartan": matrix_to_text(d.f_cartan),
            "theta_cartan": matrix_to_text(d.theta_cartan),
        }
    except (ValueError, OSError, RuntimeError) as e:
        fail("r0", e, f"r0 = {cfg.r0_mode}")

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
        # a representative recurs in many records, as equal but distinct
        # objects in mode=both; render its word once per matrix, and share
        # the words of strip prefixes, keyed by height row, across them
        memo: dict = {}
        words: dict = {}

        def word(w: WeylElement) -> str:
            text = words.get(w.matrix)
            if text is None:
                text = words[w.matrix] = (
                    " ".join(f"s{i + 1}" for i in reduced_word(rs, w, memo)) or "e"
                )
            return text

        try:
            if cfg.mode in ("gminus", "both"):
                for rec in classify_gminus(rs, triple, d):
                    report.records.append(_record_dict(word, rec, pure_a))
            if cfg.mode in ("full", "both"):
                for rec in classify_g(rs, triple, d):
                    report.records.append(_record_dict(word, rec, pure_a))
        except (ValueError, RuntimeError, AssertionError) as e:
            fail("classification", e, f"mode = {cfg.mode}")

    # type-A verification, of a term that passed the gate
    if cfg.typea_checks and d is not None:
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
    for key in _KEYS:
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
    for kind, title, lead in (
        ("gminus", "dressing orbits", ["v"]),
        ("full", "double cosets", ["v1", "v2"]),
    ):
        rows = [r for r in report.records if r["kind"] == kind]
        if not rows:
            continue
        lines.append("")
        lines.append(f"records ({title}):")
        header = lead + ["l", "dim_gv", "leaf_dim", "coset_dim"]
        cells = [
            [*(r[k] for k in lead), str(r["length"]), str(r["dim_stable"]),
             r["leaf_dim"], r["coset_dim"]]
            for r in rows
        ]
        widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(header)]
        for c in [header, *cells]:
            lines.append("  " + " | ".join(x.ljust(w) for x, w in zip(c, widths)))
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
    return _json_text(vars(report), "", {}) + "\n"


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
    for key in _KEYS:
        if key == "orbit_samples":
            p.add_argument("--orbit-sample", dest=key, action="append", metavar="FILE")
        else:
            p.add_argument("--" + key.replace("_", "-"), dest=key)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw: dict[str, str] = {}
        if args.config:
            raw = parse_config_text(Path(args.config).read_text())
        for key in _KEYS:
            val = getattr(args, key)
            if val is not None:  # an empty value still overrides the file
                raw[key] = ",".join(val) if key == "orbit_samples" else val
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
