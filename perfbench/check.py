"""Check every op by value, not by bytes.

A CLI op passes when its exit code is the expected one, its stdout parses in
the requested format, every number in it is finite, the numbers agree with
the in-process library result for the same inputs, and any pinned anchor
value matches the frozen pin the unit tests use. A crafted invalid op passes
when it exits with its documented code, prints nothing to stdout and a
message without a traceback to stderr.

The comparison flattens the output into its numbers in reading order (json
document order, csv cells after the header, table tokens) and compares them
with the library's numbers at the precision the format prints: json carries
repr() floats, csv 12 significant digits, and each table its own.
"""

import dataclasses
import json
import math
import re

NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
# a complex table value prints as "re + imi"; otherwise a number stands on
# its own, not glued to a label such as M^2, d1 or standard_2l
TOKEN = re.compile(rf"([-+]) ({NUMBER})i(?![\w.])"
                   rf"|(?<![\w^.<>])(-?{NUMBER})(?![\w.])")
NONFINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)

# table precision per command: ("g", significant digits) or ("f", decimals)
TABLE_PRECISION = {
    "qcd lambda": ("g", 3),
    "qcd alpha-s-lambda": ("g", 10),
    "qcd alpha-s-mu": ("g", 10),
    "lamb rde": ("g", 10),
    "lamb vp": ("g", 10),
    "selfenergy zeta": ("g", 10),
    "lamb 2s2p": ("f", 6),
}
JSON_REL = 1e-13


class CheckError(Exception):
    pass


def _flatten_json(doc, out):
    if isinstance(doc, dict):
        for value in doc.values():
            _flatten_json(value, out)
    elif isinstance(doc, list):
        for value in doc:
            _flatten_json(value, out)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        out.append(doc)
    return out


def parse_numbers(text, fmt):
    """The numbers of one output, in reading order."""
    if fmt == "json":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise CheckError(f"stdout is not json: {exc}") from None
        return _flatten_json(doc, [])
    lines = text.splitlines()
    if fmt == "csv":
        out = []
        for line in lines[1:]:
            for cell in line.split(","):
                try:
                    out.append(float(cell))
                except ValueError:
                    pass
        return out
    out = []
    for match in TOKEN.finditer(text):
        sign, imag, real = match.groups()
        out.append(float(real) if real is not None
                   else float(sign + imag))
    return out


def _tolerance(ref, fmt, cmd):
    if fmt == "json":
        return JSON_REL * abs(ref)
    kind, digits = ("g", 12) if fmt == "csv" else TABLE_PRECISION.get(
        cmd, ("g", 12))
    if kind == "f":
        return 0.5 * 10.0 ** -digits + 1e-15 * abs(ref)
    if ref == 0:
        return 0.0
    place = 10.0 ** (math.floor(math.log10(abs(ref))) - (digits - 1))
    return 0.5 * place + 1e-15 * abs(ref)


def compare(got, want, fmt, cmd):
    if len(got) != len(want):
        raise CheckError(f"{len(got)} numbers in output, library gives "
                         f"{len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        if abs(g - w) > _tolerance(w, fmt, cmd):
            raise CheckError(f"value {i}: output {g!r}, library {w!r}")


def check_pins(values, pins):
    for index, pin, rel in pins or ():
        got = values[index]
        if abs(got - pin) > rel * abs(pin):
            raise CheckError(f"anchor value {got!r} misses pin {pin!r} "
                             f"at rel {rel:g}")


# ------------------------------------------------------------ library side

def _complex(z):
    z = complex(z)
    return [z.real, z.imag]


def _report(r):
    return [r.phi] + [x for q in ("v", "d1", "d2", "d3", "d4")
                      for x in _complex(getattr(r, q))]


def reference(op, rl, config_path=None):
    """What the library gives for the op's inputs, flattened per format.

    Raises the library's own ValidationError/NumericsError where the CLI
    should exit 2/3.
    """
    a, fmt, cmd = op["args"], op["fmt"], op["cmd"]
    c = rl.load_config(config_path) if config_path else rl.DEFAULT_CONSTANTS
    table = rl.default_particle_table
    if cmd == "regulator value":
        out = []
        for m in a["--msq"]:
            if a["--family"] == "log":
                v = rl.log_integral_value(rl.RegulatedLogIntegral(
                    m, a.get("--c1", 0.0)))
            else:
                v = rl.quartic_integral_value(rl.RegulatedQuarticIntegral(
                    m, a.get("--c1", 0.0), a.get("--c2", 0.0),
                    a.get("--c3", 0.0)))
            out += [m] + _complex(v)
        return out
    if cmd == "regulator oracle":
        log = a["--family"] == "log"
        oracle = (rl.log_derivative_oracle if log
                  else rl.quartic_third_derivative_oracle)
        closed = (rl.log_derivative_closed_form if log
                  else rl.quartic_third_derivative_closed_form)
        return [x for m in a["--msq"] for x in (m, oracle(m), closed(m))]
    if cmd == "selfenergy zeta":
        fields = {"S": ("zeta_s", "minus_log_s"),
                  "V": ("zeta_v", "minus_log_v"),
                  "S+V": ("zeta_sv_mean", "minus_log_sv_mean"),
                  "SV": ("zeta_sv_geo", "minus_log_sv_geo")}
        scheme = a.get("--scheme", "all")
        schemes = list(fields) if scheme == "all" else [scheme]
        out = []
        for n in a["--n"]:
            row = rl.zeta_row(a["--Z"] ** 2 / (n * n), c)
            out += [a["--Z"], n, row.z_sq_over_n_sq]
            out += [getattr(row, f) for s in schemes for f in fields[s]]
        return out
    if cmd == "selfenergy onshell":
        m = a.get("--m", c.electron_mass)
        fix = rl.fix_on_shell(m, c)
        co = rl.sigma_coefficients(m * m, m, fix.mu2, c)
        return [m, fix.mu2, fix.z2,
                rl.mass_increment(m * m, m, fix.mu2, c), co.a, co.b]
    if cmd == "qed run":
        curve = rl.evolve_alpha(a["--qmax"], rl.BetaModel(table()),
                                steps=a.get("--steps"), constants=c)
        return [x for q, al in curve.samples for x in (q, al, 1.0 / al)]
    if cmd == "qed fit":
        fit = rl.fit_light_quarks(rl.BetaModel(table()), a["--target"], c)
        return [fit.scale_factor, fit.achieved_inverse_alpha, fit.iterations]
    if cmd == "qcd lambda":
        return [rl.lambda_qcd(a["--alpha"], a["--nf"], c)]
    if cmd == "qcd alpha-s-lambda":
        return [rl.alpha_s_lambda(a["--q"], rl.make_scheme(a["--nf"],
                                                          a["--lambda"]))]
    if cmd == "qcd alpha-s-mu":
        return [rl.alpha_s_mu(a["--q"], a["--mu"], a["--alpha-mu"],
                              a["--nf"])]
    if cmd == "qcd run":
        model = rl.MassiveQcdModel(table(), a.get("--anchor", 0.118),
                                   a["--flavor"])
        res = rl.evolve_alpha_s_massive(model, a["--qmin"],
                                        steps=a.get("--steps"), constants=c)
        peak = [x for x in (res.lambda_peak, res.alpha_max) if x is not None]
        return (peak if fmt == "json" else []) + [
            x for sample in res.curve.samples for x in sample]
    if cmd == "qcd threshold":
        est = rl.hadronization_threshold(a["--lambda"], a["--alphamax"])
        return [est.lambda_i, est.alpha_max, est.length_scale, est.energy]
    if cmd.startswith("effpot"):
        p = rl.PotentialParams(a["--sigma"], a["--lambda"])
        s = rl.scheme_for(a.get("--sector", "ssb"), p)
        if cmd == "effpot table":
            broken, origin = rl.two_phase_table(p, s)
            if fmt == "json":
                return _report(broken) + _report(origin)
            return [x for q in ("phi", "v", "d1", "d2", "d3", "d4")
                    for x in _complex(getattr(broken, q))
                    + _complex(getattr(origin, q))]
        if cmd == "effpot derivs":
            return [x for phi in a["--phi"]
                    for x in _report(rl.sector_report(phi, p, s))]
        if cmd == "effpot scan":
            n, step = a["--n"], a["--phimax"] / (a["--n"] - 1)
            phis = [i * step for i in range(n)]
        else:
            phis = a["--phi"]
        return [x for phi in phis
                for x in [phi] + _complex(rl.one_loop_potential(phi, p, s))]
    if cmd == "lamb 2s2p":
        mu = rl.reduced_mass(c.electron_mass, c.proton_mass)
        mode = ("formula" if a.get("--b2r") == "formula"
                else "frozen_constant")
        co = rl.radiative_coefficients(mu, c.g_factor, mode, c)
        rep = rl.lamb_2s_2p(
            mu_obs=mu, b2r=co.b2r, vp_mhz=a.get("--vp", -27.13),
            nuclear_mhz=a.get("--nuclear", 0.10),
            convention=("alt_3l" if a.get("--convention") == "3l"
                        else "standard_2l"),
            constants=c)
        out = [rep.baseline, rep.radiative, rep.vacuum_polarization,
               rep.nuclear_size, rep.total]
        return [x / 1e6 for x in out] if fmt == "table" else out
    if cmd == "lamb rde":
        return [rl.rde_transition_1s2s(a["--atom"], c)]
    if cmd == "lamb vp":
        mass = (c.electron_mass if a.get("--mass") != "reduced"
                else rl.reduced_mass(c.electron_mass, c.proton_mass))
        shift = rl.uehling_2s_shift(mass, c)
        return [shift] if fmt == "table" else [mass, shift]
    if cmd == "constants show":
        return list(dataclasses.astuple(c))
    raise KeyError(cmd)


def _fixture_text(op):
    from rrm_lab import fixtures
    table = fixtures.load_fixtures()
    if op["cmd"] == "fixtures list":
        if op["fmt"] == "json":
            return table
        return "".join(f"{k}: {v}\n" for k, v in table.items())
    text = fixtures.show(op["args"]["key"])
    if op["fmt"] == "json":
        return {"key": op["args"]["key"], "text": text}
    return text + "\n"


def check_cli(op, code, stdout, stderr, rl, config_path=None):
    """None when the op's result is right, else the reason it is not."""
    try:
        _check_cli(op, code, stdout, stderr, rl, config_path)
    except CheckError as exc:
        return str(exc)
    return None


def _check_cli(op, code, stdout, stderr, rl, config_path):
    if "Traceback" in stderr:
        raise CheckError(f"traceback, exit {code}")
    expect = op["expect"]
    if expect is None:
        try:
            if op["cmd"].startswith("fixtures"):
                want = _fixture_text(op)
            else:
                want = reference(op, rl, config_path)
            expect = 0
        except rl.ValidationError:
            expect = 2
        except rl.NumericsError:
            expect = 3
        except Exception as exc:  # any other library error is a finding
            raise CheckError(f"library raised {type(exc).__name__}: {exc}")
    if code != expect:
        raise CheckError(f"exit {code}, expected {expect}")
    if expect != 0:
        if stdout:
            raise CheckError(f"exit {code} with output on stdout")
        if not stderr.strip():
            raise CheckError(f"exit {code} without a message")
        return
    if NONFINITE.search(stdout):
        raise CheckError("non-finite number in output")
    if op["cmd"].startswith("fixtures"):
        got = json.loads(stdout) if op["fmt"] == "json" else stdout
        if got != want:
            raise CheckError("fixture text differs from the library's")
        return
    got = parse_numbers(stdout, op["fmt"])
    if not all(math.isfinite(x) for x in got):
        raise CheckError("non-finite number in output")
    compare(got, want, op["fmt"], op["cmd"])
    check_pins(got, op["pins"])


def check_probe(code, stdout, stderr, timed_out):
    """A non-finite input must end in exit 2 or 64 with a one-line message."""
    if timed_out:
        return "timed out"
    if "Traceback" in stderr:
        return f"traceback, exit {code}"
    if code not in (2, 64):
        detail = " with nan in output" if NONFINITE.search(stdout) else ""
        return f"exit {code}{detail}, expected 2 or 64"
    return None


# ------------------------------------------------------------ lib_batch

def lib_values(kind, result):
    """The numbers of one library result, flattened like the CLI's json."""
    if kind == "evolve_alpha":
        return [x for q, a in result.samples for x in (q, a, 1.0 / a)]
    if kind == "evolve_alpha_s_massive":
        return [x for sample in result.curve.samples for x in sample]
    if kind == "fit_light_quarks":
        return [result.scale_factor, result.achieved_inverse_alpha,
                result.iterations]
    if kind == "zeta_table":
        return [x for row in result for x in dataclasses.astuple(row)]
    if kind in ("sector_report", "two_phase_table"):
        return [x for r in result for x in _report(r)]
    if kind == "lamb_2s_2p":
        return [result.baseline, result.radiative,
                result.vacuum_polarization, result.nuclear_size,
                result.total]
    if kind.endswith("oracle"):
        return list(result)
    return [result]


def check_lib(op, values):
    """Invariants that need no second computation, plus the anchor pins."""
    try:
        if not all(math.isfinite(x) for x in values):
            raise CheckError("non-finite result")
        a, kind = op["args"], op["cmd"]
        if kind == "evolve_alpha" and abs(values[-3] - a["qmax"]) \
                > 1e-12 * a["qmax"]:
            raise CheckError(f"curve ends at {values[-3]!r}, not the qmax")
        if kind == "evolve_alpha_s_massive" and abs(
                values[-1] - a["anchor"]) > 1e-12 * a["anchor"]:
            raise CheckError("curve does not end on its anchor")
        if kind == "fit_light_quarks" and abs(values[1] - a["target"]) > 1e-3:
            raise CheckError(f"fit reached {values[1]!r}, target "
                             f"{a['target']!r}")
        if kind.endswith("oracle") and abs(values[0] - values[1]) \
                > 1e-8 * abs(values[1]):
            raise CheckError("oracle disagrees with the closed form")
        if kind == "lamb_2s_2p" and values[4] != sum(values[:4]):
            raise CheckError("total is not the sum of its parts")
        check_pins(values, op["pins"])
    except CheckError as exc:
        return str(exc)
    return None
