"""Command-line frontend.

Subcommands: state, sweep, density, ellipsometry, mathieu-table.
Exit codes: 0 success, 2 user error, 3 internal tolerance failure.
Outputs are deterministic (no timestamps, 12-significant-digit CSV
floats) and written atomically.  The QELLIP_TOL environment variable
overrides the default truncation tail tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import fock, noise, optics, phase_space
from .errors import (
    InconsistentSolutionError,
    NumericalDomainError,
    QellipError,
    TruncationError,
)
from .mathieu import se_even_eigenvalue, solve_even_mathieu

FAMILIES = ("coherent", "squeezed", "mathieu", "von_mises")


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


def _nbar(value) -> float:
    nbar = float(value)
    if not math.isfinite(nbar):
        raise QellipError(f"nbar must be finite, got {nbar}")
    return nbar


# ---------------------------------------------------------------------------
# state construction shared by state / sweep / ellipsometry

def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=FAMILIES, help="input state family")
    p.add_argument("--nbar", type=float, help="mean total photon number")
    p.add_argument("--q", type=float, help="Mathieu phase-dispersion parameter")
    p.add_argument("--order", type=int, help="Mathieu order index k (default 0)")
    p.add_argument("--kappa", type=float, help="von Mises concentration")
    p.add_argument("--phi0", type=float, help="von Mises mean phase (rad)")
    p.add_argument("--s", type=float, help="squeezing magnitude")
    p.add_argument("--dphi", type=float, help="squeezing noise-balance phase (rad)")
    p.add_argument("--cutoff", type=int, help="per-mode Fock cutoff (default: auto)")


def _state_report(args, cfg: dict, tol: float) -> noise.MomentReport:
    """One MomentReport from family flags: exact Fock moments for the
    photon-carrying families, circular moments plus external nbar for the
    phase-profile families."""
    family = _require(_pick(args, cfg, "family"), "--family")
    nbar = _nbar(_pick(args, cfg, "nbar", 100.0))
    cutoff = _pick(args, cfg, "cutoff")
    if family == "coherent":
        a = np.sqrt(nbar / 2.0)
        return noise.analyze(fock.coherent_state(a, a, cutoff, tail_tol=tol))
    if family == "squeezed":
        s = float(_require(_pick(args, cfg, "s"), "--s"))
        dphi = float(_pick(args, cfg, "dphi", 0.0))
        return noise.analyze(
            fock.squeezed_for_mean_photons(nbar, s, dphi, cutoff, tail_tol=tol))
    if family == "mathieu":
        q = float(_require(_pick(args, cfg, "q"), "--q"))
        order = int(_pick(args, cfg, "order", 0))
        psi = phase_space.from_mathieu(solve_even_mathieu(q, order))
        return noise.analyze(psi, nbar=nbar)
    kappa = float(_require(_pick(args, cfg, "kappa"), "--kappa"))
    phi0 = float(_pick(args, cfg, "phi0", 0.0))
    return noise.analyze(phase_space.from_von_mises(kappa, phi0), nbar=nbar)


def _sweep_family(args, cfg: dict, tol: float) -> noise.StateFamily:
    family = _require(_pick(args, cfg, "family"), "--family")
    if family == "coherent":
        return noise.coherent_family(tail_tol=tol)
    if family == "squeezed":
        s = float(_require(_pick(args, cfg, "s"), "--s"))
        return noise.squeezed_family(s, float(_pick(args, cfg, "dphi", 0.0)),
                                     tail_tol=tol)
    if family == "mathieu":
        q = float(_require(_pick(args, cfg, "q"), "--q"))
        return noise.mathieu_family(q, tail_tol=tol)
    kappa = float(_require(_pick(args, cfg, "kappa"), "--kappa"))
    return noise.von_mises_family(kappa, float(_pick(args, cfg, "phi0", 0.0)),
                                  tail_tol=tol)


# ---------------------------------------------------------------------------
# subcommands

def cmd_state(args) -> int:
    tol = _tail_tol()
    cfg = _load_config(args.config)
    report = _state_report(args, cfg, tol)
    _write_text(args.output, _json_text(noise.report_to_dict(report)))
    return 0


def _parse_nbar_list(value) -> list[float]:
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    return [_nbar(v) for v in value]


SWEEP_COLUMNS = ("nbar", "e_var", "l_var", "p_var", "product", "bound",
                 "saturation_ratio", "pol_squeezed")


def cmd_sweep(args) -> int:
    tol = _tail_tol()
    cfg = _load_config(args.config)
    family = _sweep_family(args, cfg, tol)
    nbar_list = _parse_nbar_list(_require(_pick(args, cfg, "nbar_list"),
                                          "--nbar-list"))
    if not nbar_list:
        raise QellipError("empty nbar list")
    targets = _pick(args, cfg, "targets") or ["e_var"]
    if isinstance(targets, str):
        targets = [t for t in targets.split(",") if t]
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

    rows = [",".join(SWEEP_COLUMNS)]
    for n, r in reports:
        rows.append(",".join(_fmt(v) for v in (
            n, r.e_var, r.l_var, r.p_var, r.product, r.bound,
            r.saturation_ratio, r.pol_squeezed)))
    table = "\n".join(rows) + "\n"

    def fit_dict(f: noise.ScalingFit) -> dict:
        return {"slope": f.slope, "intercept": f.intercept,
                "r_squared": f.r_squared}

    summary = fit_dict(fits[targets[0]]) if len(targets) == 1 \
        else {t: fit_dict(f) for t, f in fits.items()}

    fmt = _pick(args, cfg, "format", "csv")
    if fmt == "json":
        doc = {
            "columns": list(SWEEP_COLUMNS),
            "rows": [[n, r.e_var, r.l_var, r.p_var, r.product, r.bound,
                      r.saturation_ratio, r.pol_squeezed]
                     for n, r in reports],
            "fit": summary,
        }
        _write_text(args.output, _json_text(doc))
    elif fmt == "csv":
        _write_text(args.output, table)
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
    grid = int(_pick(args, cfg, "grid", 512))
    if grid < 64:
        raise QellipError(f"density grid must be >= 64 points, got {grid}")

    if q is not None:
        q = float(q)
        psi = phase_space.from_mathieu(solve_even_mathieu(q, 0))
        phi, p_m = phase_space.density_profile(psi, grid)
        _, p_small = phase_space.density_profile(phase_space.from_von_mises(q), grid)
        _, p_large = phase_space.density_profile(
            phase_space.from_von_mises(np.sqrt(q)), grid)
        rows = ["phi,p_mathieu,p_vonmises_smallq,p_vonmises_largeq"]
        for i in range(grid):
            rows.append(",".join(_fmt(v) for v in
                                 (phi[i], p_m[i], p_small[i], p_large[i])))
    else:
        psi = phase_space.from_von_mises(float(kappa),
                                         float(_pick(args, cfg, "phi0", 0.0)))
        phi, p = phase_space.density_profile(psi, grid)
        rows = ["phi,p_vonmises"]
        for i in range(grid):
            rows.append(f"{_fmt(phi[i])},{_fmt(p[i])}")
    _write_text(args.output, "\n".join(rows) + "\n")

    spec_path = args.spectrum_output
    if spec_path is None and args.output not in (None, "-"):
        stem, ext = os.path.splitext(args.output)
        spec_path = f"{stem}_spectrum{ext or '.csv'}"
    if spec_path is not None:
        srows = ["l,psi_sq"]
        for l, a in zip(psi.l_values, psi.amplitudes):
            srows.append(f"{l:d},{_fmt(abs(a) ** 2)}")
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
        report = _state_report(args, cfg, tol)
        bars = noise.rho_uncertainty(report)
        doc["noise"] = {
            "sigma_delta": bars.sigma_delta,
            "sigma_tanpsi_rel": bars.sigma_tanpsi_rel,
            "sigma_rho_rel": bars.sigma_rho_rel,
            "large_noise": bars.large_noise,
        }
    _write_text(args.output, _json_text(doc))
    return 0


def cmd_mathieu_table(args) -> int:
    cfg = _load_config(args.config)
    q = float(_require(_pick(args, cfg, "q"), "--q"))
    kmax = int(_pick(args, cfg, "kmax", 3))
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qellip",
        description="Quantum noise limits of ellipsometry: states, sweeps, "
                    "phase densities, and multilayer reflection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="moment report for one input state")
    _add_family_flags(p_state)
    p_state.add_argument("--config", help="JSON config file (flags win)")
    p_state.add_argument("--output", help="output path (default stdout)")
    p_state.set_defaults(func=cmd_state)

    p_sweep = sub.add_parser("sweep", help="photon-number scaling sweep")
    _add_family_flags(p_sweep)
    p_sweep.add_argument("--nbar-list", dest="nbar_list",
                         help="comma-separated photon numbers")
    p_sweep.add_argument("--target", dest="targets", action="append",
                         help="fit target (repeatable): e_var l_var p_var rho_var")
    p_sweep.add_argument("--format", choices=("csv", "json"),
                         help="output format (default csv)")
    p_sweep.add_argument("--config", help="JSON config file (flags win)")
    p_sweep.add_argument("--output", help="table output path (default stdout)")
    p_sweep.add_argument("--fit-output", dest="fit_output",
                         help="fit summary path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_dens = sub.add_parser("density", help="phase density and Fourier spectrum")
    p_dens.add_argument("--q", type=float, help="Mathieu parameter")
    p_dens.add_argument("--kappa", type=float, help="von Mises concentration")
    p_dens.add_argument("--phi0", type=float, help="von Mises mean phase (rad)")
    p_dens.add_argument("--grid", type=int, help="grid points over [0, 2pi), >= 64")
    p_dens.add_argument("--config", help="JSON config file (flags win)")
    p_dens.add_argument("--output", help="density CSV path (default stdout)")
    p_dens.add_argument("--spectrum-output", dest="spectrum_output",
                        help="spectrum CSV path (default: derived from --output)")
    p_dens.set_defaults(func=cmd_density)

    p_ell = sub.add_parser("ellipsometry",
                           help="multilayer (rho, psi, Delta) with noise bars")
    p_ell.add_argument("--stack", required=True, help="stack description file")
    _add_family_flags(p_ell)
    p_ell.add_argument("--config", help="JSON config file (flags win)")
    p_ell.add_argument("--output", help="output path (default stdout)")
    p_ell.set_defaults(func=cmd_ellipsometry)

    p_mt = sub.add_parser("mathieu-table",
                          help="eigenvalue / Fourier-coefficient dump")
    p_mt.add_argument("--q", type=float, help="Mathieu parameter")
    p_mt.add_argument("--kmax", type=int, help="largest order index (default 3)")
    p_mt.add_argument("--odd", action="store_true",
                      help="odd-branch eigenvalues instead of the even family")
    p_mt.add_argument("--config", help="JSON config file (flags win)")
    p_mt.add_argument("--output", help="output path (default stdout)")
    p_mt.set_defaults(func=cmd_mathieu_table)

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
