"""Command-line frontend.

Subcommands: state, sweep, density, ellipsometry, mathieu-table.
Argparse only splits the command line: ``_number`` converts every
numeric flag and config value, and the library checks them.
Exit codes: 0 success, 2 user error, 3 internal tolerance failure.
Outputs are deterministic (no timestamps, 12-significant-digit CSV
floats) and written atomically.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import tempfile

import numpy as np

from . import mathieu, noise, phase_space
from .errors import (InconsistentSolutionError, InvalidParameterError, NumericalDomainError,
                     QellipError, TruncationError, integer)
from .mathieu import se_even_eigenvalue, solve_even_mathieu

#: Most rows a mathieu-table may ask for: its orders' first Fourier windows, summed.
MAX_TABLE_ROWS = 2 ** 20


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    return f"{x:.12g}"


def _write_lines(path: str | None, lines) -> None:
    """Write each line and a newline atomically (temp file + rename) to a
    path, streamed as the lines come, or to stdout in one write, so that
    a failure part way prints nothing.  Stdout is flushed here, so a
    failed write (a full device, a closed pipe) raises inside ``main``."""
    if path in (None, "-"):
        sys.stdout.write("".join(f"{line}\n" for line in lines))
        sys.stdout.flush()
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qellip-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


def _param(args, cfg: dict, key: str, kind: type | None = None, default=None,
           required: bool = False):
    """One parameter: its flag wins over its config key, which wins over
    ``default``.  Missing, it is an error if ``required``, else None.  A
    ``kind`` (float or int) converts it by ``_number``."""
    value = getattr(args, key, None)
    if value is None:
        value = cfg.get(key, default)
    if value is None and required:
        raise QellipError(f"missing required parameter: --{key.replace('_', '-')}")
    if kind is None or (value is None and default is None):
        return value
    return _number(kind, value, key)


def _number(kind: type, value, what: str):
    """A numeric flag or config value as a float, or as an int that must be
    whole (2.0 is 2).  A string of digits is an int, any other string a
    float; a boolean, list or object is a user error naming ``what``."""
    try:
        if isinstance(value, str):
            value = int(value) if value.strip().isdecimal() else float(value)
        if isinstance(value, bool):
            raise TypeError
        return integer(what, value) if kind is int else float(value)
    except (TypeError, ValueError, OverflowError):
        raise QellipError(f"{what} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}") from None


def _refuse(args, flags, why: str) -> None:
    """The first of ``flags`` given on the command line is an error; config
    keys are not checked, since one config may serve several subcommands."""
    for flag in flags:
        if getattr(args, flag) is not None:
            raise QellipError(f"--{flag} {why}")


def _items(value, what: str) -> list:
    """A list, or the non-blank items of a comma-separated string."""
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip()]
    if not isinstance(value, list):
        raise QellipError(f"{what} must be a list or comma-separated string, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# state construction shared by state / sweep / ellipsometry

#: Every family parameter by name, in registry order: the family flags.
_FAMILY_PARAMS = {p.name: p for _, params in noise.FAMILIES.values()
                  for p in params}


def _add_family_flags(parser: argparse.ArgumentParser, nbar: bool = True) -> None:
    parser.add_argument("--family", metavar=f"{{{','.join(noise.FAMILIES)}}}",
                        help="input state family")
    if nbar:
        parser.add_argument("--nbar", help="mean total photon number")
    for p in _FAMILY_PARAMS.values():
        parser.add_argument(f"--{p.name}", help=p.help)


def _family(args, cfg: dict) -> noise.StateFamily:
    """The registry family named by --family, built from the flags and
    config keys of its parameters.  A flag the family does not take is an
    error."""
    name = _param(args, cfg, "family", required=True)
    if not isinstance(name, str) or name not in noise.FAMILIES:
        raise QellipError(f"unknown family {name!r}; expected one of "
                          f"{', '.join(noise.FAMILIES)}")
    build, params = noise.FAMILIES[name]
    taken = {p.name for p in params}
    _refuse(args, [f for f in _FAMILY_PARAMS if f not in taken],
            f"does not apply to family {name}")
    kwargs = {p.name: _param(args, cfg, p.name, p.type, required=p.required)
              for p in params}
    # a missing optional parameter takes the constructor's default
    return build(**{k: v for k, v in kwargs.items() if v is not None})


def _single_report(args, cfg: dict) -> noise.MomentReport:
    """The report of one state at --nbar: exact Fock moments for the Fock
    families; for a phase family, the bare phase state's circular moments
    with nbar as an external parameter, p_var = 4 Var(L) / nbar^2."""
    family = _family(args, cfg)
    nbar = _param(args, cfg, "nbar", float, 100.0)
    if family.phase is not None:
        return noise.analyze(family.phase, nbar=nbar)
    return family.build_report(nbar)


# ---------------------------------------------------------------------------
# subcommands

def cmd_state(args, cfg: dict) -> int:
    report = _single_report(args, cfg)
    _write_lines(args.output, [json.dumps(noise.report_to_dict(report), indent=2,
                                          sort_keys=True)])
    return 0


SWEEP_COLUMNS = ("nbar", "e_var", "l_var", "p_var", "product", "bound",
                 "saturation_ratio", "pol_squeezed")
SWEEP_FORMATS = ("csv", "json")


def cmd_sweep(args, cfg: dict) -> int:
    fmt = _param(args, cfg, "format", default="csv")
    if fmt not in SWEEP_FORMATS:
        raise QellipError(f"unknown output format {fmt!r}")
    family = _family(args, cfg)
    nbar_list = [_number(float, v, "nbar")
                 for v in _items(_param(args, cfg, "nbar_list", required=True), "nbar list")]
    targets = _items(_param(args, cfg, "targets") or ["e_var"], "targets")
    reports, fits = noise.scaling_sweep(family, nbar_list, targets)
    rows = [(n, *(getattr(r, c) for c in SWEEP_COLUMNS[1:])) for n, r in reports]
    summary = {t: {"slope": f.slope, "intercept": f.intercept, "r_squared": f.r_squared}
               for t, f in fits.items()}
    if len(targets) == 1:
        summary = summary[targets[0]]

    if fmt == "json":
        doc = {
            "columns": list(SWEEP_COLUMNS),
            "rows": [[noise.json_number(x) for x in row] for row in rows],
            "fit": summary,
        }
        _write_lines(args.output, [json.dumps(doc, indent=2, sort_keys=True)])
    else:
        _write_lines(args.output, itertools.chain([",".join(SWEEP_COLUMNS)],
                                                  (",".join(map(_fmt, row)) for row in rows)))
        _write_lines(args.fit_output, [json.dumps(summary, indent=2, sort_keys=True)])
    return 0


def cmd_density(args, cfg: dict) -> int:
    q = _param(args, cfg, "q", float)
    kappa = _param(args, cfg, "kappa", float)
    if (q is None) == (kappa is None):
        raise QellipError("density needs exactly one of --q or --kappa")
    if q is not None:
        _refuse(args, ("phi0",), "needs --kappa")
    grid = _param(args, cfg, "grid", int, 512)
    if grid < 64:
        raise QellipError(f"density grid must be >= 64 points, got {grid}")

    if q is not None:
        psi = phase_space.from_mathieu(solve_even_mathieu(q, 0))
        header = "phi,p_mathieu,p_vonmises_smallq,p_vonmises_largeq"
        columns = list(phase_space.density_profile(psi, grid))
        # past its window budget, the comparison column at
        # kappa = q is the user's --q, not a --kappa they never gave
        try:
            columns.append(phase_space.density_profile(phase_space.from_von_mises(q), grid)[1])
        except InvalidParameterError as exc:
            raise QellipError(f"--q {q} is over the budget of the p_vonmises_smallq "
                              f"column, a von Mises state at kappa = q: {exc}") from None
        columns.append(phase_space.density_profile(phase_space.from_von_mises(np.sqrt(q)), grid)[1])
    else:
        psi = phase_space.from_von_mises(kappa, _param(args, cfg, "phi0", float, 0.0))
        header = "phi,p_vonmises"
        columns = list(phase_space.density_profile(psi, grid))
    _write_lines(args.output, itertools.chain(
        [header], (",".join(map(_fmt, row)) for row in zip(*columns))))

    spec_path = args.spectrum_output
    if spec_path is None and args.output not in (None, "-"):
        stem, ext = os.path.splitext(args.output)
        spec_path = f"{stem}_spectrum{ext or '.csv'}"
    if spec_path is not None:
        _write_lines(spec_path, itertools.chain(
            ["l,psi_sq"], (f"{l:d},{_fmt(abs(a) ** 2)}"
                           for l, a in zip(psi.l_values, psi.amplitudes))))
    return 0


def cmd_ellipsometry(args, cfg: dict) -> int:
    from . import optics  # the one subcommand that reflects off a stack

    stack = optics.load_stack(args.stack)
    result = optics.stack_reflection(stack)
    doc = {
        "r_p_re": result.r_p.real, "r_p_im": result.r_p.imag,
        "r_s_re": result.r_s.real, "r_s_im": result.r_s.imag,
        "rho_re": result.rho.real, "rho_im": result.rho.imag,
        "psi_deg": float(np.rad2deg(result.psi_angle)),
        "delta_deg": float(np.rad2deg(result.delta)),
    }
    if _param(args, cfg, "family") is not None:
        bars = noise.rho_uncertainty(_single_report(args, cfg))
        doc["noise"] = bars._asdict()
    else:
        _refuse(args, ("nbar", *_FAMILY_PARAMS), "needs --family")
    _write_lines(args.output, [json.dumps(doc, indent=2, sort_keys=True)])
    return 0


def cmd_mathieu_table(args, cfg: dict) -> int:
    q = _param(args, cfg, "q", float, required=True)
    kmax = _param(args, cfg, "kmax", int, 3)
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
        header = "k,q,eigenvalue"
        rows = (f"{k:d},{_fmt(q)},{_fmt(se_even_eigenvalue(q, k))}" for k in range(kmax + 1))
    else:  # one order's solution at a time
        header = "k,q,eigenvalue,j,coeff"
        rows = (f"{sol.order_index:d},{_fmt(q)},{_fmt(sol.eigenvalue)},{j:d},{_fmt(c)}"
                for sol in (solve_even_mathieu(q, k) for k in range(kmax + 1))
                for j, c in enumerate(sol.coefficients))
    _write_lines(args.output, itertools.chain([header], rows))
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
    p_sweep.add_argument("--format", metavar=f"{{{','.join(SWEEP_FORMATS)}}}",
                         help="output format (default csv)")
    p_sweep.add_argument("--fit-output", dest="fit_output",
                         help="fit summary path (default stdout)")

    p_dens = _subcommand(sub, "density", cmd_density,
                         "phase density and Fourier spectrum",
                         "density CSV path (default stdout)")
    p_dens.add_argument("--q", help="Mathieu parameter")
    p_dens.add_argument("--kappa", help="von Mises concentration")
    p_dens.add_argument("--phi0", help="von Mises mean phase (rad)")
    p_dens.add_argument("--grid", help="grid points over [0, 2pi), >= 64")
    p_dens.add_argument("--spectrum-output", dest="spectrum_output",
                        help="spectrum CSV path (default: derived from --output)")

    p_ell = _subcommand(sub, "ellipsometry", cmd_ellipsometry,
                        "multilayer (rho, psi, Delta) with noise bars")
    p_ell.add_argument("--stack", required=True, help="stack description file")
    _add_family_flags(p_ell)

    p_mt = _subcommand(sub, "mathieu-table", cmd_mathieu_table,
                       "eigenvalue / Fourier-coefficient dump")
    p_mt.add_argument("--q", help="Mathieu parameter")
    p_mt.add_argument("--kmax", help="largest order index (default 3)")
    p_mt.add_argument("--odd", action="store_true",
                      help="odd-branch eigenvalues instead of the even family")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _load_config(args.config))
    except (TruncationError, InconsistentSolutionError, NumericalDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QellipError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Entry point of ``python -m qellip.cli`` and of the ``qellip``
    console script: ``main()``, a flush of stdout and stderr, then
    ``os._exit``.

    Every output file is renamed into place inside ``main``, so the
    interpreter's teardown (module cleanup, the last garbage collections,
    the BLAS libraries' destructors) could change no result and is
    skipped.  A flush that fails turns a success into exit 2, with no
    traceback.  An exception that escapes ``main`` (argparse's
    ``SystemExit``, ``KeyboardInterrupt``, a warning raised as an error)
    takes the normal exit path.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            code = code or 2
    os._exit(code)


if __name__ == "__main__":
    run()
