"""Command-line frontend.

Subcommands: state, sweep, density, ellipsometry, mathieu-table.
Exit codes: 0 success, 2 user error, 3 internal tolerance failure.
Outputs are deterministic (no timestamps, 12-significant-digit CSV
floats) and written atomically.  The QELLIP_TOL environment variable
overrides the default truncation tail tolerance.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import fock, mathieu, noise, optics, phase_space
from .errors import (
    InconsistentSolutionError,
    NumericalDomainError,
    QellipError,
    TruncationError,
)
from .mathieu import se_even_eigenvalue, solve_even_mathieu

#: Most rows a mathieu-table may ask for: its orders' default Fourier windows, summed.
MAX_TABLE_ROWS = 2 ** 20


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    return f"{x:.12g}"


def _write_text(path: str | None, text: str) -> None:
    """Write to stdout, or atomically (temp file + rename) to a path."""
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qellip-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _tail_tol() -> float:
    raw = os.environ.get("QELLIP_TOL")
    if raw is None:
        return fock.DEFAULT_TAIL_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise QellipError(f"QELLIP_TOL must be a float, got {raw!r}") from None
    if not tol > 0.0:
        raise QellipError(f"QELLIP_TOL must be positive, got {tol}")
    return tol


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise QellipError(f"config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise QellipError(f"config {path}: expected a JSON object")
    return cfg


def _pick(args, cfg: dict, key: str, default=None):
    """Flags win over config values, config over defaults."""
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def _require(value, what: str):
    if value is None:
        raise QellipError(f"missing required parameter: {what}")
    return value


def _number(kind: type, value, what: str):
    """``kind(value)`` for a flag or config value; a value of the wrong
    type (a JSON list or object, say) is a user error naming ``what``."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise QellipError(f"{what} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}") from None


def _nbar(value) -> float:
    nbar = _number(float, value, "nbar")
    if not math.isfinite(nbar):
        raise QellipError(f"nbar must be finite, got {nbar}")
    return nbar


# ---------------------------------------------------------------------------
# state construction shared by state / sweep / ellipsometry

#: Every family parameter by name, in registry order: the family flags.
_FAMILY_PARAMS = {p.name: p for _, params in noise.FAMILIES.values()
                  for p in params}


def _add_family_flags(parser: argparse.ArgumentParser, nbar: bool = True) -> None:
    parser.add_argument("--family", choices=noise.FAMILIES,
                        help="input state family")
    if nbar:
        parser.add_argument("--nbar", type=float, help="mean total photon number")
    for p in _FAMILY_PARAMS.values():
        parser.add_argument(f"--{p.name}", type=p.type, help=p.help)


def _family(args, cfg: dict, tol: float) -> noise.StateFamily:
    """The registry family named by --family, built from the flags and
    config keys of its parameters.  A flag the family does not take is an
    error; config keys are not checked, since one config may serve
    several subcommands."""
    name = _require(_pick(args, cfg, "family"), "--family")
    if not isinstance(name, str) or name not in noise.FAMILIES:
        raise QellipError(f"unknown family {name!r}; expected one of "
                          f"{', '.join(noise.FAMILIES)}")
    build, params = noise.FAMILIES[name]
    taken = {p.name for p in params}
    for flag in _FAMILY_PARAMS:
        if flag not in taken and getattr(args, flag) is not None:
            raise QellipError(f"--{flag} does not apply to family {name}")
    kwargs = {}
    for p in params:
        value = _pick(args, cfg, p.name)
        if p.required:
            _require(value, f"--{p.name}")
        if value is not None:  # else the constructor's default
            kwargs[p.name] = _number(p.type, value, p.name)
    return build(tail_tol=tol, **kwargs)


def _single_report(args, cfg: dict, tol: float) -> noise.MomentReport:
    """The report of one state at --nbar: exact Fock moments for the Fock
    families; for a phase family, the bare phase state's circular moments
    with nbar as an external parameter, p_var = 4 Var(L) / nbar^2."""
    family = _family(args, cfg, tol)
    nbar = _nbar(_pick(args, cfg, "nbar", 100.0))
    if family.phase is not None:
        return noise.analyze(family.phase, nbar=nbar)
    return family.build_report(nbar)


# ---------------------------------------------------------------------------
# subcommands

def cmd_state(args) -> int:
    tol = _tail_tol()
    cfg = _load_config(args.config)
    report = _single_report(args, cfg, tol)
    _write_text(args.output, _json_text(noise.report_to_dict(report)))
    return 0


def _parse_nbar_list(value) -> list[float]:
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    if not isinstance(value, list):
        raise QellipError(f"nbar list must be a list or comma-separated string, "
                          f"got {value!r}")
    return [_nbar(v) for v in value]


SWEEP_COLUMNS = ("nbar", "e_var", "l_var", "p_var", "product", "bound",
                 "saturation_ratio", "pol_squeezed")


def cmd_sweep(args) -> int:
    tol = _tail_tol()
    cfg = _load_config(args.config)
    family = _family(args, cfg, tol)
    nbar_list = _parse_nbar_list(_require(_pick(args, cfg, "nbar_list"),
                                          "--nbar-list"))
    if not nbar_list:
        raise QellipError("empty nbar list")
    targets = _pick(args, cfg, "targets") or ["e_var"]
    if isinstance(targets, str):
        targets = [t for t in targets.split(",") if t]
    if not isinstance(targets, list):
        raise QellipError(f"targets must be a list or comma-separated string, "
                          f"got {targets!r}")
    for t in targets:
        if t not in noise.SWEEP_TARGETS:
            raise QellipError(
                f"unknown target {t!r}; expected one of {noise.SWEEP_TARGETS}")

    reports = noise.family_reports(family, nbar_list)
    fits = {
        t: noise.fit_power_law(
            [(n, noise.target_value(r, t)) for n, r in reports])
        for t in targets
    }
    rows = [(n, *(getattr(r, c) for c in SWEEP_COLUMNS[1:])) for n, r in reports]
    summary = {t: {"slope": f.slope, "intercept": f.intercept, "r_squared": f.r_squared}
               for t, f in fits.items()}
    if len(targets) == 1:
        summary = summary[targets[0]]

    fmt = _pick(args, cfg, "format", "csv")
    if fmt == "json":
        doc = {
            "columns": list(SWEEP_COLUMNS),
            "rows": [list(row) for row in rows],
            "fit": summary,
        }
        _write_text(args.output, _json_text(doc))
    elif fmt == "csv":
        lines = [",".join(SWEEP_COLUMNS)] + [",".join(map(_fmt, row)) for row in rows]
        _write_text(args.output, "\n".join(lines) + "\n")
        _write_text(args.fit_output, _json_text(summary))
    else:
        raise QellipError(f"unknown output format {fmt!r}")
    return 0


def cmd_density(args) -> int:
    cfg = _load_config(args.config)
    q = _pick(args, cfg, "q")
    kappa = _pick(args, cfg, "kappa")
    if (q is None) == (kappa is None):
        raise QellipError("density needs exactly one of --q or --kappa")
    grid = _number(int, _pick(args, cfg, "grid", 512), "grid")
    if grid < 64:
        raise QellipError(f"density grid must be >= 64 points, got {grid}")

    if q is not None:
        q = _number(float, q, "q")
        psi = phase_space.from_mathieu(solve_even_mathieu(q, 0))
        header = "phi,p_mathieu,p_vonmises_smallq,p_vonmises_largeq"
        shown = (psi, phase_space.from_von_mises(q),
                 phase_space.from_von_mises(np.sqrt(q)))
    else:
        psi = phase_space.from_von_mises(_number(float, kappa, "kappa"),
                                         _number(float, _pick(args, cfg, "phi0", 0.0), "phi0"))
        header, shown = "phi,p_vonmises", (psi,)
    profiles = [phase_space.density_profile(state, grid) for state in shown]
    columns = [profiles[0][0], *(p for _, p in profiles)]
    rows = [header] + [",".join(_fmt(c[i]) for c in columns) for i in range(grid)]
    _write_text(args.output, "\n".join(rows) + "\n")

    spec_path = args.spectrum_output
    if spec_path is None and args.output not in (None, "-"):
        stem, ext = os.path.splitext(args.output)
        spec_path = f"{stem}_spectrum{ext or '.csv'}"
    if spec_path is not None:
        srows = ["l,psi_sq"] + [f"{l:d},{_fmt(abs(a) ** 2)}"
                                for l, a in zip(psi.l_values, psi.amplitudes)]
        _write_text(spec_path, "\n".join(srows) + "\n")
    return 0


def cmd_ellipsometry(args) -> int:
    tol = _tail_tol()
    cfg = _load_config(args.config)
    stack = optics.load_stack(args.stack)
    result = optics.stack_reflection(stack)
    doc = {
        "r_p_re": result.r_p.real, "r_p_im": result.r_p.imag,
        "r_s_re": result.r_s.real, "r_s_im": result.r_s.imag,
        "rho_re": result.rho.real, "rho_im": result.rho.imag,
        "psi_deg": float(np.rad2deg(result.psi_angle)),
        "delta_deg": float(np.rad2deg(result.delta)),
    }
    if _pick(args, cfg, "family") is not None:
        bars = noise.rho_uncertainty(_single_report(args, cfg, tol))
        doc["noise"] = dataclasses.asdict(bars)
    else:
        for flag in ("nbar", *_FAMILY_PARAMS):
            if getattr(args, flag) is not None:
                raise QellipError(f"--{flag} needs --family")
    _write_text(args.output, _json_text(doc))
    return 0


def cmd_mathieu_table(args) -> int:
    cfg = _load_config(args.config)
    q = _number(float, _require(_pick(args, cfg, "q"), "--q"), "q")
    kmax = _number(int, _pick(args, cfg, "kmax", 3), "kmax")
    mathieu._validate_q(q)
    if kmax < 0:
        raise QellipError(f"kmax must be >= 0, got {kmax}")
    needed = 0
    for k in range(kmax + 1):  # stops once over budget, long before a large kmax
        window = mathieu.auto_truncation(q, k)
        if window > mathieu.MAX_TRUNCATION:
            break  # the solve of order k refuses this window itself
        needed += window
        if needed > MAX_TABLE_ROWS:
            raise QellipError(f"kmax={kmax} at q={q} passes {MAX_TABLE_ROWS} table rows at k={k}")
    if args.odd:
        rows = ["k,q,eigenvalue"]
        for k in range(kmax + 1):
            rows.append(f"{k:d},{_fmt(q)},{_fmt(se_even_eigenvalue(q, k))}")
    else:
        rows = ["k,q,eigenvalue,j,coeff"]
        for k in range(kmax + 1):
            sol = solve_even_mathieu(q, k)
            for j, c in enumerate(sol.coefficients):
                rows.append(f"{k:d},{_fmt(q)},{_fmt(sol.eigenvalue)},{j:d},{_fmt(c)}")
    _write_text(args.output, "\n".join(rows) + "\n")
    return 0


# ---------------------------------------------------------------------------

def _subcommand(sub, name: str, func, help: str,
                output: str = "output path (default stdout)") -> argparse.ArgumentParser:
    # whole flags only: an abbreviation could name another flag, as a
    # stray --nbar would name sweep's --nbar-list
    p = sub.add_parser(name, help=help, allow_abbrev=False)
    p.add_argument("--config", help="JSON config file (flags win)")
    p.add_argument("--output", help=output)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qellip",
        description="Quantum noise limits of ellipsometry: states, sweeps, "
                    "phase densities, and multilayer reflection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_family_flags(_subcommand(sub, "state", cmd_state,
                                  "moment report for one input state"))

    p_sweep = _subcommand(sub, "sweep", cmd_sweep, "photon-number scaling sweep",
                          "table output path (default stdout)")
    _add_family_flags(p_sweep, nbar=False)
    p_sweep.add_argument("--nbar-list", dest="nbar_list",
                         help="comma-separated photon numbers")
    p_sweep.add_argument("--target", dest="targets", action="append",
                         help="fit target (repeatable): e_var l_var p_var rho_var")
    p_sweep.add_argument("--format", choices=("csv", "json"),
                         help="output format (default csv)")
    p_sweep.add_argument("--fit-output", dest="fit_output",
                         help="fit summary path (default stdout)")

    p_dens = _subcommand(sub, "density", cmd_density,
                         "phase density and Fourier spectrum",
                         "density CSV path (default stdout)")
    p_dens.add_argument("--q", type=float, help="Mathieu parameter")
    p_dens.add_argument("--kappa", type=float, help="von Mises concentration")
    p_dens.add_argument("--phi0", type=float, help="von Mises mean phase (rad)")
    p_dens.add_argument("--grid", type=int, help="grid points over [0, 2pi), >= 64")
    p_dens.add_argument("--spectrum-output", dest="spectrum_output",
                        help="spectrum CSV path (default: derived from --output)")

    p_ell = _subcommand(sub, "ellipsometry", cmd_ellipsometry,
                        "multilayer (rho, psi, Delta) with noise bars")
    p_ell.add_argument("--stack", required=True, help="stack description file")
    _add_family_flags(p_ell)

    p_mt = _subcommand(sub, "mathieu-table", cmd_mathieu_table,
                       "eigenvalue / Fourier-coefficient dump")
    p_mt.add_argument("--q", type=float, help="Mathieu parameter")
    p_mt.add_argument("--kmax", type=int, help="largest order index (default 3)")
    p_mt.add_argument("--odd", action="store_true",
                      help="odd-branch eigenvalues instead of the even family")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TruncationError, InconsistentSolutionError, NumericalDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QellipError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
