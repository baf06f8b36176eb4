"""The four benchmark workloads.

Each workload builds its inputs from a seeded generator, lists the
operations of one round (the same operations in the same order every
round) as (kind, inputs key, call) triples, and checks results against
``oracles``.  Operations with equal keys repeat the same call.  Workloads reach the
program only through ``layer_api`` (library layers) or ``run_cli`` (the
``qellip`` command), so the traced run can put a span around every call.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np

import oracles

TWO_PI = 2.0 * math.pi

#: thicker stacks are checked against the Rouard recursion alone
BOUNCE_MAX_FILMS = 4

#: A phase state drops Fourier components under 1e-15 of its mass (amplitudes
#: up to ~3e-8), which moves its density by up to ~1e-7 of the peak; the
#: exact density is held to ten times that.
DENSITY_RTOL = 1e-6


def _grid_mb(args, state) -> dict:
    return {"grid_mb": (state.cutoff + 1) ** 2 * 16 / 1e6}


def _support(args, psi) -> dict:
    return {"support": len(psi.amplitudes)}


def _window(args, sol) -> dict:
    return {"window": sol.truncation_dim}


def _layer_steps(args, result) -> dict:
    return {"layer_steps": 2 * len(args[0].layers)}


def _output_bytes(args, result) -> dict:
    return {"output_bytes": sum(len(b) for b in result[1])}


CLI_KINDS = ("state", "sweep", "density", "ellipsometry", "mathieu_table")


def cli_api(tracer):
    """``run_cli`` for each kind of invocation, traced when ``tracer`` is set."""
    if tracer is None:
        return SimpleNamespace(cli={kind: run_cli for kind in CLI_KINDS})
    return SimpleNamespace(cli={kind: tracer.wrap(f"cli.{kind}", run_cli, _output_bytes)
                                for kind in CLI_KINDS})


def layer_api(tracer):
    """The public layer functions the workloads call, traced when ``tracer`` is set."""
    from qellip import fock, mathieu, noise, optics, phase_space

    table = {
        # attribute: (span name, function, size attributes, record allocation peak)
        "solve_even_mathieu": ("mathieu.solve", mathieu.solve_even_mathieu, _window, False),
        "from_mathieu": ("phase_space.build", phase_space.from_mathieu, _support, False),
        "from_von_mises": ("phase_space.build", phase_space.from_von_mises, _support, False),
        "circular_moments": ("phase_space.moments", phase_space.circular_moments, None, False),
        "density_profile": ("phase_space.density", phase_space.density_profile, None, False),
        "coherent_state": ("fock.coherent", fock.coherent_state, _grid_mb, True),
        "squeezed_for_mean_photons": ("fock.squeezed", fock.squeezed_for_mean_photons, _grid_mb, True),
        "embed_phase_state": ("fock.embed", fock.embed_phase_state, _grid_mb, True),
        "analyze": ("noise.analyze", noise.analyze, None, True),
        "fit_power_law": ("noise.fit", noise.fit_power_law, None, False),
        "rho_uncertainty": ("noise.rho_bars", noise.rho_uncertainty, None, False),
        "parse_stack_text": ("optics.parse", optics.parse_stack_text, None, False),
        "stack_reflection": ("optics.reflect", optics.stack_reflection, _layer_steps, False),
    }
    if tracer is None:
        return SimpleNamespace(**{k: fn for k, (_, fn, _, _) in table.items()})
    return SimpleNamespace(**{k: tracer.wrap(span, fn, attrs, alloc)
                              for k, (span, fn, attrs, alloc) in table.items()})


# ---------------------------------------------------------------------------
# comparisons


def rel_ok(value, expected, rtol, atol=0.0) -> bool:
    return abs(value - expected) <= atol + rtol * abs(expected)


def same_result(a, b, rtol: float = 1e-12) -> bool:
    """A repeated operation gives the first round's result: bytes exactly,
    numbers to rounding (array reductions may take another summation order)."""
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(same_result(x, y, rtol) for x, y in zip(a, b)))
    if isinstance(a, (int, float, complex)) and not isinstance(a, bool):
        if a == b:
            return True
        return isinstance(b, (int, float, complex)) and abs(a - b) <= rtol * max(abs(a), abs(b))
    return a == b


def report_tuple(rep) -> tuple:
    return (rep.n_mean, rep.e_mean, rep.e_var, rep.l_mean, rep.l_var, rep.p_var,
            rep.saturation_ratio)


def report_ok(res, nbar: float) -> bool:
    """Properties every moment report has: its photon number, and the
    uncertainty relation Var(E) Var(L) >= |<E>|^2 / 4."""
    n_mean, _, _, _, _, _, ratio = res
    return rel_ok(n_mean, nbar, 1e-9) and ratio >= 1.0 - 1e-9


def fit_ok(res, slope_range) -> bool:
    """Fit matches a least-squares line through the same points, in range."""
    points, slope, intercept = res
    x = [math.log10(n) for n, _ in points]
    y = [math.log10(v) for _, v in points]
    ref_slope, ref_intercept = oracles.least_squares_line(x, y)
    lo, hi = slope_range
    return (abs(slope - ref_slope) <= 1e-9 and abs(intercept - ref_intercept) <= 1e-9
            and lo <= slope <= hi)


@functools.lru_cache(maxsize=None)
def coherent_e_var(nbar: float) -> float:
    return 1.0 - oracles.coherent_e_mean(nbar) ** 2


def coherent_ok(res, nbar: float) -> bool:
    _, e_mean, e_var, _, l_var, _, _ = res
    return (report_ok(res, nbar) and rel_ok(l_var, nbar / 4.0, 1e-9)
            and rel_ok(e_var, coherent_e_var(nbar), 1e-7) and abs(e_mean.imag) <= 1e-12)


# ---------------------------------------------------------------------------
# workloads


class ShotNoise:
    """Balanced coherent and displaced squeezed states, built and analyzed.

    Extra copies of the low- and mid-cost operations (REPEATS) put the
    median operation in the middle of the coherent nbar=400 class, so the
    reported median does not jump between classes from run to run.  The
    points are fixed: their cost depends on value-level properties
    (subnormal counts), so the seed only orders the operations.
    """

    name = "shot-noise"
    SIZES = {
        False: {"coherent": (100, 400, 1600, 2800), "squeezed": (10, 100, 400, 1000)},
        True: {"coherent": (100, 200, 400), "squeezed": (10, 40, 100)},
    }
    SQUEEZING = (0.5, 1.0)
    REPEATS = {("coherent", 100): 2, ("coherent", 400): 8, ("squeezed", 0.5, 10): 3}

    def __init__(self, api, rng, tiny, workdir):
        self.api = api
        self.sizes = self.SIZES[tiny]
        builds = [("coherent", n) for n in self.sizes["coherent"]]
        builds += [("squeezed", s, n) for s in self.SQUEEZING for n in self.sizes["squeezed"]]
        builds = [b for b in builds for _ in range(self.REPEATS.get(b, 1))]
        order = rng.permutation(len(builds))
        self.inputs = [builds[i] for i in order]
        self.inputs += [("fit-coherent",)] + [("fit-squeezed", s) for s in self.SQUEEZING]
        self.reports = {}

    def warm_up(self):
        api = self.api
        api.analyze(api.coherent_state(2.0, 2.0))
        api.analyze(api.squeezed_for_mean_photons(10.0, 0.5))
        api.fit_power_law([(1.0, 1.0), (2.0, 0.5)])

    def ops(self):
        return [(spec[0], spec, functools.partial(self._run, spec)) for spec in self.inputs]

    def _run(self, spec):
        api = self.api
        if spec[0] == "coherent":
            a = math.sqrt(spec[1] / 2.0)
            rep = api.analyze(api.coherent_state(a, a))
        elif spec[0] == "squeezed":
            rep = api.analyze(api.squeezed_for_mean_photons(spec[2], spec[1]))
        else:
            if spec[0] == "fit-coherent":
                points = [(n, self.reports[("coherent", n)].e_var)
                          for n in self.sizes["coherent"]]
            else:
                points = [(n, self.reports[("squeezed", spec[1], n)].l_var)
                          for n in self.sizes["squeezed"]]
            fit = api.fit_power_law(points)
            return tuple(points), fit.slope, fit.intercept
        self.reports[spec] = rep
        return report_tuple(rep)

    def check(self, i, results):
        spec, res = self.inputs[i], results[i]
        if spec[0] == "coherent":
            return coherent_ok(res, spec[1])
        if spec[0] == "squeezed":
            _, s, nbar = spec
            return report_ok(res, nbar) and rel_ok(res[4], oracles.squeezed_l_var(nbar, s, 0.0), 1e-9)
        if spec[0] == "fit-coherent":
            return (fit_ok(res, (-1.05, -0.95))
                    and all(rel_ok(v, coherent_e_var(n), 1e-7) for n, v in res[0]))
        s = spec[1]
        return (fit_ok(res, (-math.inf, math.inf))
                and all(rel_ok(v, oracles.squeezed_l_var(n, s, 0.0), 1e-9) for n, v in res[0]))


class Heisenberg:
    """Mathieu and von Mises beams on single Fock layers, plus a q-scan.

    The q-scan operations are the majority and set the median; the
    embeddings on (N+1)^2 grids set the round time and the memory peak.
    One density per beam per round exercises phase_space.density_profile.
    """

    name = "heisenberg"
    Q_EMBED = (1.0, 100.0, 1e4)
    LAYERS = {False: (250, 500, 750, 1000), True: (250, 500)}
    QSCAN = {False: 300, True: 12}
    DENSITY_GRID = 512

    def __init__(self, api, rng, tiny, workdir):
        self.api = api
        self.layers = self.LAYERS[tiny]
        kappas = (float(rng.uniform(1.0, 4.0)), float(rng.uniform(20.0, 80.0)))
        self.beams = {}
        for q in self.Q_EMBED:
            sol = api.solve_even_mathieu(q)
            self.beams[("mathieu", q)] = (sol, api.from_mathieu(sol))
        for kappa in kappas:
            self.beams[("von_mises", kappa)] = (None, api.from_von_mises(kappa))
        count = self.QSCAN[tiny]
        edges = np.linspace(-3.0, 4.0, count + 1)
        log_q = edges[:-1] + (edges[1:] - edges[:-1]) * rng.random(count)
        nbars = 2 * rng.integers(50, 5000, size=count)
        work = [("qscan", float(10.0 ** lq), float(n)) for lq, n in zip(log_q, nbars)]
        work += [("density", beam) for beam in self.beams]
        work += [("embed", beam, N) for beam in self.beams for N in self.layers]
        order = rng.permutation(len(work))
        self.inputs = [work[i] for i in order]
        self.inputs += [("fit", beam, target) for beam in self.beams
                        for target in ("p_var", "l_var")]
        self.reports = {}

    def warm_up(self):
        api = self.api
        psi = api.from_mathieu(api.solve_even_mathieu(2.0))
        api.circular_moments(psi)
        api.analyze(psi, 100.0)
        api.analyze(api.embed_phase_state(psi, 40))
        api.density_profile(psi, 64)
        api.fit_power_law([(1.0, 1.0), (2.0, 0.5)])

    def ops(self):
        return [(spec[0], spec, functools.partial(self._run, spec)) for spec in self.inputs]

    def _run(self, spec):
        api = self.api
        kind = spec[0]
        if kind == "qscan":
            _, q, nbar = spec
            sol = api.solve_even_mathieu(q)
            psi = api.from_mathieu(sol)
            mom = api.circular_moments(psi)
            rep = api.analyze(psi, nbar)
            return (sol.eigenvalue, tuple(sol.coefficients), psi.l_min, mom.e_mean,
                    mom.l_mean, mom.l_var, report_tuple(rep))
        if kind == "density":
            phi, p = api.density_profile(self.beams[spec[1]][1], self.DENSITY_GRID)
            return tuple(phi), tuple(p)
        if kind == "embed":
            _, beam, N = spec
            rep = api.analyze(api.embed_phase_state(self.beams[beam][1], N))
            self.reports[(beam, N)] = rep
            return report_tuple(rep)
        _, beam, target = spec
        points = [(N, getattr(self.reports[(beam, N)], target)) for N in self.layers]
        fit = api.fit_power_law(points)
        return tuple(points), fit.slope, fit.intercept

    def _beam_ok(self, beam) -> bool:
        sol = self.beams[beam][0]
        if sol is None:
            return True
        return (rel_ok(sol.eigenvalue, oracles.mathieu_root_near(sol.eigenvalue, sol.q),
                       0.0, 1e-10 * (1.0 + abs(sol.eigenvalue)))
                and oracles.ce0_has_no_zero(sol.coefficients))

    def check(self, i, results):
        spec, res = self.inputs[i], results[i]
        kind = spec[0]
        if kind == "qscan":
            _, q, nbar = spec
            a, coeffs, l_min, e_mean, l_mean, l_var, rep = res
            A = np.array(coeffs)
            # the phase state keeps |l| <= -l_min and drops the rest, whose
            # mass must stay below the documented 1e-12 window tolerance
            kept = np.append(A[:1 - l_min], 0.0)
            kept /= math.sqrt(2.0 * kept[0] ** 2 + np.sum(kept[1:] ** 2))
            theta, l_var_ref = oracles.mathieu_moments_from_coefficients(kept)
            return (rel_ok(a, oracles.mathieu_root_near(a, q), 0.0, 1e-10 * (1.0 + abs(a)))
                    and oracles.ce0_has_no_zero(A)
                    and abs(2.0 * A[0] ** 2 + np.sum(A[1:] ** 2) - 1.0) <= 1e-12
                    and np.sum(A[1 - l_min:] ** 2) <= 1e-12
                    and abs(e_mean - theta) <= 1e-12 and abs(l_mean) <= 1e-9
                    and rel_ok(l_var, l_var_ref, 1e-9, 1e-18)
                    and report_ok(rep, nbar)
                    and rel_ok(rep[5], 4.0 * l_var / nbar ** 2, 1e-9))
        if kind == "density":
            beam = spec[1]
            phi, p = np.array(res[0]), np.array(res[1])
            if beam[0] == "mathieu":
                A = self.beams[beam][0].coefficients
                ce = np.cos(np.outer(phi, np.arange(len(A)))) @ A  # ce_0(phi / 2)
                ref = ce * ce / math.pi
            else:
                w = np.exp(-beam[1] * (np.cos(phi) + 1.0))
                ref = w / (w.sum() * TWO_PI / len(phi))
            return (self._beam_ok(beam)
                    and np.allclose(phi, TWO_PI * np.arange(len(phi)) / len(phi), rtol=0, atol=1e-12)
                    and abs(p.sum() * TWO_PI / len(p) - 1.0) <= 1e-10
                    and float(np.max(np.abs(p - ref))) <= DENSITY_RTOL * float(ref.max()))
        if kind == "embed":
            _, beam, N = spec
            psi = self.beams[beam][1]
            ref = oracles.layer_moments(psi.l_values, psi.amplitudes, N)
            _, e_mean, _, l_mean, l_var, p_var, _ = res
            ok = (self._beam_ok(beam) and report_ok(res, N)
                  and abs(l_mean - ref["l_mean"]) <= 1e-9 and rel_ok(l_var, ref["l_var"], 1e-9)
                  and abs(e_mean - ref["e_mean"]) <= 1e-12 and rel_ok(p_var, ref["p_var"], 1e-8))
            if beam[0] == "von_mises":
                e_ref, l_ref = oracles.von_mises_moments(beam[1])
                ok = ok and abs(e_mean - e_ref) <= 1e-10 and rel_ok(l_var, l_ref, 1e-9)
            return ok
        slope_range = (-2.05, -1.95) if spec[2] == "p_var" else (-0.02, 0.02)
        return fit_ok(res, slope_range)


class EllipsometryScan:
    """Seeded multilayer stacks: parse, reflect, and put noise bars on rho.

    The layer-count mix puts the median in the middle of the 3-layer class
    and the 99th percentile inside the 100-layer class.  Fock states are
    built only in set-up, for the four moment reports the bars come from.
    """

    name = "ellipsometry-scan"
    LAYER_MIX = ((0, 100), (1, 150), (2, 150), (3, 200), (4, 200), (10, 150), (100, 50))

    def __init__(self, api, rng, tiny, workdir):
        self.api = api
        counts = [(n, c // 10 if tiny else c) for n, c in self.LAYER_MIX]
        stacks = [random_stack(rng, n) for n, c in counts for _ in range(c)]
        self.stacks = [stacks[i] for i in rng.permutation(len(stacks))]
        self.texts = [oracles.stack_text(s) for s in self.stacks]
        a = math.sqrt(50.0)
        psi = api.from_mathieu(api.solve_even_mathieu(1.0))
        self.reports = [
            api.analyze(api.coherent_state(a, a)),
            api.analyze(api.squeezed_for_mean_photons(100.0, 0.5)),
            api.analyze(api.embed_phase_state(psi, 100)),
            api.analyze(api.from_von_mises(4.0), 100.0),
        ]

    def warm_up(self):
        self._run(0)

    def ops(self):
        return [("stack", i, functools.partial(self._run, i)) for i in range(len(self.stacks))]

    def _run(self, i):
        api = self.api
        result = api.stack_reflection(api.parse_stack_text(self.texts[i]))
        bars = api.rho_uncertainty(self.reports[i % len(self.reports)])
        return (result.r_p, result.r_s, result.rho, result.psi_angle, result.delta,
                bars.sigma_delta, bars.sigma_tanpsi_rel, bars.sigma_rho_rel)

    def check(self, i, results):
        stack, res = self.stacks[i], results[i]
        r_p, r_s, rho, psi, delta, s_delta, s_tanpsi, s_rho = res
        ok = reflection_ok(stack, r_p, r_s, rho, psi, delta)
        rep = self.reports[i % len(self.reports)]
        return (ok and rel_ok(s_delta, math.sqrt(-2.0 * math.log(abs(rep.e_mean))), 1e-12)
                and rel_ok(s_tanpsi, math.sqrt(rep.p_var), 1e-12)
                and rel_ok(s_rho, math.hypot(s_delta, s_tanpsi), 1e-12))


def random_stack(rng, layers: int) -> dict:
    """External-reflection stack, film and substrate indices above the
    ambient one; half the stacks are lossless, the rest mix absorbing
    and lossless films on an absorbing substrate."""
    lossless = rng.random() < 0.5
    films = []
    for _ in range(layers):
        k = 0.0 if lossless or rng.random() < 0.5 else float(0.5 * rng.random())
        films.append((complex(float(1.2 + 2.5 * rng.random()), k), float(300.0 * rng.random())))
    angle_deg = float(80.0 * rng.random())
    return {
        "ambient": 1.0,
        "layers": films,
        "substrate": complex(float(1.5 + 2.5 * rng.random()),
                             0.0 if lossless else float(0.5 * rng.random())),
        "wavelength": float(400.0 + 500.0 * rng.random()),
        "angle_deg": angle_deg,
        "angle_rad": math.radians(angle_deg),
        "lossless": lossless,
    }


def reflection_ok(stack, r_p, r_s, rho, psi, delta, tol: float = 1e-10) -> bool:
    """(r_p, r_s) against the Rouard recursion (and, for thin stacks, the
    bounce series); rho, psi and Delta against their definitions."""
    refs = [(oracles.rouard_reflection(stack, "p"), oracles.rouard_reflection(stack, "s"))]
    if len(stack["layers"]) <= BOUNCE_MAX_FILMS:
        refs.append((oracles.bounce_reflection(stack, "p"), oracles.bounce_reflection(stack, "s")))
    ok = all(abs(r_p - rp) <= tol and abs(r_s - rs) <= tol for rp, rs in refs)
    if stack["lossless"]:
        ok = ok and abs(r_p) <= 1.0 + 1e-12 and abs(r_s) <= 1.0 + 1e-12
    return (ok and abs(rho - r_p / r_s) <= 1e-12 * abs(rho)
            and abs(psi - math.atan(abs(rho))) <= 1e-12
            and 0.0 <= delta < TWO_PI
            and abs(cmath.exp(1j * delta) - rho / abs(rho)) <= 1e-12)


# ---------------------------------------------------------------------------
# cli


def run_cli(workdir, argv, outputs):
    """One ``qellip`` invocation in a fresh interpreter; returns the exit
    code and the bytes of each output file (empty when missing).  The child
    inherits the worker's environment, with its one-thread BLAS pool."""
    for name in outputs:
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            os.unlink(path)
    proc = subprocess.run([sys.executable, "-m", "qellip.cli", *argv], cwd=workdir,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    data = []
    for name in outputs:
        path = os.path.join(workdir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data.append(fh.read())
        else:
            data.append(b"")
    return proc.returncode, tuple(data)


def _csv(data: bytes) -> tuple[list[str], np.ndarray]:
    lines = data.decode().strip().splitlines()
    rows = [[float(v) if v not in ("true", "false") else float(v == "true")
             for v in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=float)


class Cli:
    """Small ``qellip`` invocations, each in a fresh process.

    Start-up and imports are most of each invocation, so this workload
    measures the cli layer's argument handling, serialization and atomic
    writes, and any start-up gain.  Parameters are seeded within ranges
    where every invocation costs about the same.  The coherent sweep, the
    slowest invocation, runs twice a round: it alone sets op_p99_ms, and
    a round takes long enough that one copy would give it only three or
    four repetitions a run.
    """

    name = "cli"

    def __init__(self, api, rng, tiny, workdir):
        self.workdir = workdir
        self.nbar = float(round(float(rng.uniform(50.0, 200.0)), 3))
        self.nbar_sq = float(round(float(rng.uniform(10.0, 100.0)), 3))
        self.s = float(round(float(rng.uniform(0.3, 1.0)), 3))
        self.q = float(round(float(rng.uniform(0.5, 20.0)), 3))
        self.kappa = float(round(float(rng.uniform(1.0, 10.0)), 3))
        self.layer_n = int(2 * rng.integers(20, 100))
        self.stack = random_stack(rng, 2)
        with open(os.path.join(workdir, "film.stack"), "w", encoding="utf-8") as fh:
            fh.write(oracles.stack_text(self.stack))
        # up to nbar=2800 so the coherent sweep is the slowest invocation by a
        # margin, and the 99th percentile sits inside its class
        self.sweep_coherent = (100.0, 400.0, 1600.0, 2800.0)
        self.sweep_mathieu = (40, 80, 160, 320)
        f = _fmt_arg
        self.inputs = [
            ("state", "coherent", ["state", "--family", "coherent", "--nbar", f(self.nbar),
                                   "--output", "coherent.json"], ["coherent.json"]),
            ("state", "squeezed", ["state", "--family", "squeezed", "--s", f(self.s),
                                   "--nbar", f(self.nbar_sq), "--output", "squeezed.json"],
             ["squeezed.json"]),
            ("state", "mathieu", ["state", "--family", "mathieu", "--q", f(self.q),
                                  "--nbar", str(self.layer_n), "--output", "mathieu.json"],
             ["mathieu.json"]),
            ("state", "von_mises", ["state", "--family", "von_mises", "--kappa", f(self.kappa),
                                    "--nbar", str(self.layer_n), "--output", "von_mises.json"],
             ["von_mises.json"]),
            ("sweep", "coherent", ["sweep", "--family", "coherent", "--nbar-list",
                                   ",".join(f(n) for n in self.sweep_coherent),
                                   "--target", "e_var", "--output", "sweep_c.csv",
                                   "--fit-output", "sweep_c.json"], ["sweep_c.csv", "sweep_c.json"]),
            ("sweep", "coherent", ["sweep", "--family", "coherent", "--nbar-list",
                                   ",".join(f(n) for n in self.sweep_coherent),
                                   "--target", "e_var", "--output", "sweep_c.csv",
                                   "--fit-output", "sweep_c.json"], ["sweep_c.csv", "sweep_c.json"]),
            ("sweep", "mathieu", ["sweep", "--family", "mathieu", "--q", f(self.q), "--nbar-list",
                                  ",".join(str(n) for n in self.sweep_mathieu),
                                  "--target", "p_var", "--output", "sweep_m.csv",
                                  "--fit-output", "sweep_m.json"], ["sweep_m.csv", "sweep_m.json"]),
            ("density", "mathieu", ["density", "--q", f(self.q), "--grid", "512",
                                    "--output", "density.csv"],
             ["density.csv", "density_spectrum.csv"]),
            ("ellipsometry", "coherent", ["ellipsometry", "--stack", "film.stack", "--family",
                                          "coherent", "--nbar", f(self.nbar),
                                          "--output", "ellipsometry.json"], ["ellipsometry.json"]),
            ("mathieu_table", "even", ["mathieu-table", "--q", f(self.q), "--kmax", "3",
                                       "--output", "table.csv"], ["table.csv"]),
        ]
        self.call = api.cli

    def warm_up(self):
        run_cli(self.workdir, ["mathieu-table", "--q", "1", "--kmax", "0", "--output", "warm.csv"],
                ["warm.csv"])

    def ops(self):
        return [(kind, (kind, what), functools.partial(self.call[kind], self.workdir, argv, outputs))
                for kind, what, argv, outputs in self.inputs]

    def check(self, i, results):
        by_name = {(kind, what): res for (kind, what, _, _), res in zip(self.inputs, results)}
        kind, what = self.inputs[i][:2]
        by_name[(kind, what)] = results[i]  # this copy's own result, not its twin's
        return self._check(kind, what, by_name)

    def _table(self, by_name):
        code, (data,) = by_name[("mathieu_table", "even")]
        _, rows = _csv(data)
        return rows  # k, q, eigenvalue, j, coeff

    def _ground_coefficients(self, by_name) -> np.ndarray:
        rows = self._table(by_name)
        return rows[rows[:, 0] == 0][:, 4]

    def _check(self, kind, what, by_name):
        code, data = by_name[(kind, what)]
        if code != 0:
            return False
        if kind == "mathieu_table":
            rows = self._table(by_name)
            eigen = []
            for k in range(4):
                sel = rows[rows[:, 0] == k]
                a = float(sel[0, 2])
                A = sel[:, 4]
                eigen.append(a)
                if not (rel_ok(a, oracles.mathieu_root_near(a, self.q), 0.0, 1e-10 * (1 + abs(a)))
                        and abs(2.0 * A[0] ** 2 + np.sum(A[1:] ** 2) - 1.0) <= 1e-10
                        and np.all(sel[:, 1] == self.q)):
                    return False
            return (oracles.ce0_has_no_zero(self._ground_coefficients(by_name))
                    and all(x < y for x, y in zip(eigen, eigen[1:])))
        if kind == "state":
            doc = json.loads(data[0])
            res = (doc["n_mean"], complex(doc["e_mean_re"], doc["e_mean_im"]), doc["e_var"],
                   doc["l_mean"], doc["l_var"], doc["p_var"], doc["saturation_ratio"])
            if what == "coherent":
                return coherent_ok(res, self.nbar)
            if what == "squeezed":
                return (report_ok(res, self.nbar_sq)
                        and rel_ok(res[4], oracles.squeezed_l_var(self.nbar_sq, self.s, 0.0), 1e-9))
            if what == "mathieu":
                theta, l_var = oracles.mathieu_moments_from_coefficients(
                    self._ground_coefficients(by_name))
                e_ref = complex(theta)
            else:
                e_ref, l_var = oracles.von_mises_moments(self.kappa)
            return (report_ok(res, self.layer_n) and abs(res[1] - e_ref) <= 1e-10
                    and rel_ok(res[4], l_var, 1e-9)
                    and rel_ok(res[5], 4.0 * res[4] / self.layer_n ** 2, 1e-12))
        if kind == "sweep":
            header, rows = _csv(data[0])
            fit = json.loads(data[1])
            col = {name: i for i, name in enumerate(header)}
            nbar = rows[:, col["nbar"]]
            if what == "coherent":
                target = rows[:, col["e_var"]]
                ok = (np.array_equal(nbar, self.sweep_coherent)
                      and all(rel_ok(l, n / 4.0, 1e-9) for n, l in zip(nbar, rows[:, col["l_var"]]))
                      and all(rel_ok(v, coherent_e_var(n), 1e-7) for n, v in zip(nbar, target)))
                slope_range = (-1.05, -0.95)
            else:
                A = self._ground_coefficients(by_name)
                l = np.arange(-(len(A) - 1), len(A))
                amps = np.concatenate([A[:0:-1] / math.sqrt(2.0), [math.sqrt(2.0) * A[0]],
                                       A[1:] / math.sqrt(2.0)])
                _, l_var = oracles.mathieu_moments_from_coefficients(A)
                target = rows[:, col["p_var"]]
                ok = np.array_equal(nbar, self.sweep_mathieu) and all(
                    rel_ok(lv, l_var, 1e-9)
                    and rel_ok(pv, oracles.layer_moments(l, amps, int(N))["p_var"], 1e-8)
                    for N, lv, pv in zip(nbar, rows[:, col["l_var"]], target))
                slope_range = (-2.05, -1.95)
            points = tuple(zip(nbar.tolist(), target.tolist()))
            return (ok and fit_ok((points, fit["slope"], fit["intercept"]), slope_range))
        if kind == "density":
            header, rows = _csv(data[0])
            _, spectrum = _csv(data[1])
            phi = rows[:, 0]
            grid = len(phi)
            A = self._ground_coefficients(by_name)
            ce = np.cos(np.outer(phi, np.arange(len(A)))) @ A
            sums = rows[:, 1:].sum(axis=0) * TWO_PI / grid
            _, l_var = oracles.mathieu_moments_from_coefficients(A)
            return (header == ["phi", "p_mathieu", "p_vonmises_smallq", "p_vonmises_largeq"]
                    and np.allclose(phi, TWO_PI * np.arange(grid) / grid, rtol=1e-11, atol=0)
                    and np.all(np.abs(sums - 1.0) <= 1e-9)
                    and float(np.max(np.abs(rows[:, 1] - ce * ce / math.pi)))
                    <= DENSITY_RTOL * rows[:, 1].max()
                    and abs(spectrum[:, 1].sum() - 1.0) <= 1e-9
                    and rel_ok(float(spectrum[:, 0] ** 2 @ spectrum[:, 1]), l_var, 1e-9))
        # ellipsometry
        doc = json.loads(data[0])
        r_p = complex(doc["r_p_re"], doc["r_p_im"])
        r_s = complex(doc["r_s_re"], doc["r_s_im"])
        rho = complex(doc["rho_re"], doc["rho_im"])
        state = json.loads(by_name[("state", "coherent")][1][0])
        e_abs = abs(complex(state["e_mean_re"], state["e_mean_im"]))
        noise = doc["noise"]
        return (reflection_ok(self.stack, r_p, r_s, rho, math.radians(doc["psi_deg"]),
                              math.radians(doc["delta_deg"]))
                and rel_ok(noise["sigma_delta"], math.sqrt(-2.0 * math.log(e_abs)), 1e-9)
                and rel_ok(noise["sigma_tanpsi_rel"], math.sqrt(state["p_var"]), 1e-9)
                and rel_ok(noise["sigma_rho_rel"],
                           math.hypot(noise["sigma_delta"], noise["sigma_tanpsi_rel"]), 1e-12))


def _fmt_arg(x: float) -> str:
    return repr(float(x))


WORKLOADS = {
    ShotNoise.name: (ShotNoise, layer_api),
    Heisenberg.name: (Heisenberg, layer_api),
    EllipsometryScan.name: (EllipsometryScan, layer_api),
    Cli.name: (Cli, cli_api),
}
