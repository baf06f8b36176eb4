"""Property tier of the CLI: generated invocations of every subcommand.

Flags and config keys come from ``noise.FAMILIES``, each parameter's
values from its entry in PARAM_VALUES.  Values mix ordinary numbers
with the edges of the float range, non-finite values and config values
of the wrong type.  Whatever the input, ``cli.main`` exits 0, 2 or 3
with every warning an error; a failure leaves no output and no
``.qellip-*`` temp file, and a success writes strict JSON whose numbers
are finite (CSV: no NaN).  Every numeric parameter reads the same
whether given as a flag, a config number or a config string.  Example
counts keep the tier to a few seconds, derandomized.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qellip import cli
from qellip.noise import FAMILIES

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: edges of the float range and values past them
EDGES = (0.0, -0.0, 5e-324, 1e-300, -5.0, 1e200, 1e308, math.inf, -math.inf, math.nan)


def mostly(common, rare):
    """``common`` seven times in eight, else ``rare``: most examples then
    get past the input checks to a computation."""
    return st.integers(0, 7).flatmap(lambda i: rare if i == 0 else common)


def numbers(low: float, high: float, edges=EDGES):
    """Ordinary values in [low, high], or an edge."""
    return mostly(st.floats(low, high), st.sampled_from(edges))


#: values of each family parameter, bounded so that an accepted input
#: builds in milliseconds; the edges exercise the refusals
PARAM_VALUES = {
    "s": numbers(0.01, 1.0, EDGES + (2.0, 1e154)),
    "dphi": numbers(-10.0, 10.0, EDGES + (-1e308,)),
    "q": numbers(1e-3, 1e4, EDGES + (1e8, 1e17, 1e20)),
    "order": st.integers(-2, 8),
    "kappa": numbers(1e-3, 1e3, EDGES + (1e6, 1e8, 1e12)),
    "phi0": numbers(-10.0, 10.0, EDGES + (-1e308,)),
}
#: photon numbers: the even whole layers a phase family embeds on, or any
NBAR = mostly(st.one_of(st.integers(1, 200).map(lambda n: 2.0 * n), st.floats(1.0, 400.0)),
              st.sampled_from(EDGES + (0.5, 2.0)))
#: config values of the wrong type
WRONG_TYPES = st.sampled_from(([1.0], {"k": 1}, "x", None, True, "12"))


def flag(name: str, value) -> str:
    """``--name=value``, a form argparse reads even where the value
    starts with a minus sign."""
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


@st.composite
def family_inputs(draw):
    """A family with each parameter as a flag, a config key or absent,
    and now and then a config value of the wrong type or a parameter the
    family does not take: (flags, config)."""
    name = draw(st.sampled_from(sorted(FAMILIES)))
    flags, cfg = [], {}
    if draw(st.booleans()):
        flags.append(flag("family", name))
    else:
        cfg["family"] = name
    params = [p.name for p in FAMILIES[name][1]]
    others = sorted({p.name for _, ps in FAMILIES.values() for p in ps} - set(params))
    chosen = params + draw(mostly(st.just([]), st.lists(st.sampled_from(others),
                                                         min_size=1, max_size=1)))
    for key in chosen:
        where = draw(mostly(st.sampled_from(("flag", "config")), st.just("absent")))
        value = draw(PARAM_VALUES[key])
        if where == "flag":
            flags.append(flag(key, value))
        elif where == "config":  # JSON has no non-finite number: those go as strings
            cfg[key] = (draw(mostly(st.just(value), WRONG_TYPES)) if math.isfinite(value)
                        else repr(value))
    return flags, cfg


@st.composite
def stack_texts(draw):
    """Stack files: an ambient, up to three films and a substrate."""
    index = numbers(1.0, 4.0, EDGES + (1.0,))
    loss = numbers(0.0, 2.0, EDGES + (-0.1,))
    thickness = numbers(0.0, 1e3, EDGES + (1e6, 1e20))
    lines = [f"ambient {draw(index)!r}"]
    for _ in range(draw(st.integers(0, 3))):
        lines.append(f"layer {draw(index)!r} {draw(loss)!r} {draw(thickness)!r}")
    lines.append(f"substrate {draw(index)!r} {draw(loss)!r}")
    lines.append(f"wavelength {draw(numbers(200.0, 2000.0))!r}")
    lines.append(f"angle {draw(numbers(0.0, 89.9, EDGES + (90.0, 56.3)))!r}")
    if draw(st.integers(0, 9)) == 0:
        del lines[draw(st.integers(0, len(lines) - 1))]
    return "\n".join(lines) + "\n"


def refuse(constant):
    raise ValueError(f"non-JSON constant {constant}")


def finite_numbers(doc) -> bool:
    if isinstance(doc, dict):
        return all(finite_numbers(v) for v in doc.values())
    if isinstance(doc, list):
        return all(finite_numbers(v) for v in doc)
    return not isinstance(doc, float) or math.isfinite(doc)


def invoke(argv: list, cfg: dict | None = None, stack: str | None = None) -> tuple[int, dict]:
    """Run ``cli.main`` with ``--output out`` in a fresh directory and
    every warning an error: its exit code and the text of each file it
    wrote, with stdout as "-"."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [*argv, "--output", os.path.join(tmp, "out")]
        inputs = []
        if cfg is not None:
            with open(os.path.join(tmp, "cfg.json"), "w") as fh:
                json.dump(cfg, fh)
            argv = [*argv, "--config", os.path.join(tmp, "cfg.json")]
            inputs.append("cfg.json")
        if stack is not None:
            with open(os.path.join(tmp, "stack.txt"), "w") as fh:
                fh.write(stack)
            argv = [*argv, "--stack", os.path.join(tmp, "stack.txt")]
            inputs.append("stack.txt")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse refuses the command line
                code = exc.code
        assert code in (0, 2, 3), (argv, cfg, stack, code, err.getvalue())
        written = sorted(set(os.listdir(tmp)) - set(inputs))
        if code != 0:
            assert written == [], (argv, written)
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith(("error: ", "usage: ")), err.getvalue()
            return code, {}
        assert not any(name.startswith(".qellip-") for name in written), written
        texts = {name: open(os.path.join(tmp, name)).read() for name in written}
        texts["-"] = out.getvalue()
        return code, texts


def check_json(text: str) -> dict:
    doc = json.loads(text, parse_constant=refuse)
    assert finite_numbers(doc), doc
    return doc


def check_csv(text: str) -> None:
    lines = text.splitlines()
    assert len(lines) >= 2
    assert "nan" not in text.lower(), lines[:5]


class TestGeneratedInvocations:
    @PROPERTY
    @given(family=family_inputs(), nbar=st.one_of(st.none(), NBAR))
    def test_state(self, family, nbar):
        flags, cfg = family
        argv = ["state", *flags] + ([] if nbar is None else [flag("nbar", nbar)])
        code, texts = invoke(argv, cfg)
        if code == 0:
            check_json(texts["out"])

    @PROPERTY
    @given(family=family_inputs(), nbar_list=st.lists(NBAR, min_size=2, max_size=4),
           targets=st.lists(st.sampled_from(("e_var", "l_var", "p_var", "rho_var", "x")),
                            max_size=2),
           fmt=st.sampled_from(("csv", "json")))
    def test_sweep(self, family, nbar_list, targets, fmt):
        flags, cfg = family
        argv = ["sweep", *flags, "--nbar-list=" + ",".join(map(repr, nbar_list)),
                "--format", fmt, *(flag("target", t) for t in targets)]
        code, texts = invoke(argv, cfg)
        if code == 0 and fmt == "json":
            check_json(texts["out"])
        elif code == 0:
            check_csv(texts["out"])
            check_json(texts["-"])

    @PROPERTY
    @given(given_=mostly(st.sampled_from((("q",), ("kappa",), ("kappa", "phi0"))),
                         st.sampled_from(((), ("q", "kappa"), ("q", "phi0")))),
           q=PARAM_VALUES["q"], kappa=PARAM_VALUES["kappa"], phi0=PARAM_VALUES["phi0"],
           grid=mostly(st.sampled_from((None, 64, 100, 512, 1000)), st.sampled_from((-1, 63))))
    def test_density(self, given_, q, kappa, phi0, grid):
        values = {"q": q, "kappa": kappa, "phi0": phi0, "grid": grid}
        argv = ["density", *(flag(name, values[name]) for name in (*given_, "grid")
                             if values[name] is not None)]
        code, texts = invoke(argv)
        if code == 0:
            check_csv(texts["out"])
            check_csv(texts["out_spectrum.csv"])

    @PROPERTY
    @given(q=numbers(0.0, 1e4, EDGES + (1e8, 1e20)),
           kmax=st.one_of(st.none(), st.integers(-1, 6)), odd=st.booleans())
    def test_mathieu_table(self, q, kmax, odd):
        argv = ["mathieu-table", flag("q", q)]
        argv += [] if kmax is None else [flag("kmax", kmax)]
        argv += ["--odd"] if odd else []
        code, texts = invoke(argv)
        if code == 0:
            check_csv(texts["out"])

    @PROPERTY
    @given(stack=stack_texts(), family=st.one_of(st.none(), family_inputs()),
           nbar=st.one_of(st.none(), NBAR))
    def test_ellipsometry(self, stack, family, nbar):
        flags, cfg = family if family is not None else ([], None)
        argv = ["ellipsometry", *flags] + ([] if nbar is None else [flag("nbar", nbar)])
        code, texts = invoke(argv, cfg, stack)
        if code == 0:
            doc = check_json(texts["out"])
            assert ("noise" in doc) == (family is not None)


def spellings(value):
    """Each way to give ``value``: (where, value) as a flag, a config
    string and, where JSON holds it, a config number; a whole number as
    an int and as a float."""
    variants = [value]
    if math.isfinite(value) and float(value).is_integer():
        variants.append(float(value) if isinstance(value, int) else int(value))
    for v in variants:
        yield from (("flag", repr(v)), ("config", repr(v)))
        if math.isfinite(v):
            yield "config", v


def numeric(low: float, high: float, edges=EDGES):
    """Integers and floats in [low, high], or an edge."""
    return mostly(st.one_of(st.integers(math.ceil(low), math.floor(high)),
                            st.floats(low, high)), st.sampled_from(edges))


#: every numeric parameter: the invocation it completes and its values
NUMERIC = {
    ("state --family squeezed --nbar 4", "s"): numeric(0.0, 1.0, EDGES + (2.0,)),
    ("state --family squeezed --s 0.2 --nbar 4", "dphi"): numeric(-10.0, 10.0),
    ("state --family mathieu", "q"): numeric(0.0, 1e3),
    ("state --family mathieu --q 1", "order"): numeric(-1, 6, (1.5, math.inf)),
    ("state --family von_mises", "kappa"): numeric(0.0, 1e3),
    ("state --family von_mises --kappa 2", "phi0"): numeric(-10.0, 10.0),
    ("state --family coherent", "nbar"): numeric(0.0, 400.0),
    ("density --kappa 2", "grid"): numeric(60, 600, (-1, 63.5, 1e20, math.nan)),
    ("mathieu-table --q 1", "kmax"): numeric(-1, 6, (0.5, -math.inf)),
    ("density", "q"): numeric(0.0, 1e3),
    ("density", "kappa"): numeric(0.0, 1e3),
    ("density --kappa 2", "phi0"): numeric(-10.0, 10.0),
}


@pytest.mark.parametrize("argv, name", NUMERIC,
                         ids=[f"{argv.split()[0]}-{name}" for argv, name in NUMERIC])
@settings(max_examples=3, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_conversion_for_flags_and_config(argv, name, data):
    # one rule for both: when argparse converted the flags, --order 1.0
    # exited 2 where "order": 1.0 ran, and a JSON true ran as 1
    value = data.draw(NUMERIC[argv, name])
    results = {}
    for where, given_ in spellings(value):
        flags = [f"--{name}={given_}"] if where == "flag" else []
        cfg = {name: given_} if where == "config" else None
        results[where, repr(given_)] = invoke([*argv.split(), *flags], cfg)
    assert len({json.dumps(r, sort_keys=True) for r in results.values()}) == 1, results
    for boolean in (True, False):
        assert invoke(argv.split(), {name: boolean})[0] == 2
