"""Command-line interface: one subcommand family per module.

Exit codes: 0 success, 2 validation failure, 3 numerical failure, I/O
failure or any other exception (one stderr line, no traceback), 64 usage
error (a non-finite number in a float flag is one).

Each handler imports its own physics module when it runs, so a command
loads only its family: building the parser imports none of them.

Each handler builds a record (dict) or a list of records and hands it to
``_emit``, the one renderer. json prints every float at full ``repr``
precision and a complex number as ``{"re": ..., "im": ...}``, byte for
byte as ``json.dumps(data, indent=2)``; a list of flat number records
(a scan, a curve), alone or at the end of a header record, is written by
``_json_records`` instead, and a test checks it against ``json.dumps``.
csv prints floats at 12 significant digits, one column per key, and
splits a complex value under key ``k`` into ``re_k`` and ``im_k``. table
prints a record as ``key = value`` lines and a list as csv, except where a
command has its own table layout (regulator, zeta, the qcd scalars,
effpot table, lamb, fixtures). Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

from .constants import (
    DEFAULT_CONSTANTS,
    MAX_SAMPLES,
    default_particle_table,
    load_config,
    load_particle_table_file,
    parse_finite,
)
from .errors import NumericsError, ValidationError


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _complex_str(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)} {sign} {_fmt(abs(z.imag))}i"


def _complex_json(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _csv(records) -> str:
    if isinstance(records, dict):
        records = [records]
    header = []
    for k, v in records[0].items():
        header += (f"re_{k}", f"im_{k}") if isinstance(v, complex) else (k,)
    lines = [",".join(header)]
    for record in records:
        cells = []
        for v in record.values():
            if isinstance(v, float):
                cells.append(_fmt(v))
            elif isinstance(v, complex):
                cells += (_fmt(v.real), _fmt(v.imag))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _check_finite(data):
    """Raise NumericsError naming the key of a nan or infinite number in a
    record or list of records: an overflow must not print as a number."""
    for record in [data] if isinstance(data, dict) else data:
        for key, value in record.items():
            kind = type(value)
            if kind is float or kind is complex:
                if value * 0.0 != 0.0:  # nan iff a part is nan or inf
                    raise NumericsError(f"{key} = {value!r} is not finite")
            elif kind is dict or kind is list:
                _check_finite(value)


def _json_records(data):
    """``json.dumps(data, indent=2) + "\\n"`` for a non-empty list of
    non-empty records with str keys and values that are exactly float or
    int, or for a record whose last value is such a list and whose other
    values are exactly str, float, int or None (a curve and its header);
    else None.

    The scans print tens of thousands of such records, and ``json.dumps``
    with an indent never uses its C encoder. Each record is written from a
    template per key tuple: a key as ``json`` escapes it, a value by
    ``float.__repr__`` or ``int.__repr__``, which is what ``json`` prints.
    A header is written by hand around the list, indented one more level.
    """
    if type(data) is dict and data:
        import json
        *head, (key, last) = data.items()
        body = _json_records(last) if type(last) is list else None
        if body is None or type(key) is not str or not all(
                type(k) is str and type(v) in (str, float, int, type(None))
                for k, v in head):
            return None
        lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in head]
        lines.append(f"  {json.dumps(key)}: {body[:-1]}".replace("\n",
                                                                "\n  "))
        return "{\n" + ",\n".join(lines) + "\n}\n"
    if type(data) is not list or not data:
        return None
    from json.encoder import encode_basestring_ascii
    templates, layout, values = {}, [], []
    for record in data:
        if type(record) is not dict or not record:
            return None
        keys = tuple(record)
        template = templates.get(keys)
        if template is None:
            if not all(type(k) is str for k in keys):
                return None
            template = templates[keys] = "  {\n" + ",\n".join(
                f"    {encode_basestring_ascii(k).replace('%', '%%')}: %r"
                for k in keys) + "\n  }"
        layout.append(template)
        values += record.values()
    if not {*map(type, values)} <= {float, int}:
        return None
    return ("[\n" + ",\n".join(layout) + "\n]\n") % tuple(values)


def _emit(fmt: str, data, table=None, rows=None) -> str:
    """Render a record or a list of records in one output format.

    ``table`` is the command's own table layout, called with ``data``;
    ``rows`` replaces ``data`` in csv and the default table where the json
    document is not the list of records those print; it holds only numbers
    that ``data`` holds, since the finite check reads ``data``.
    """
    _check_finite(data)
    if fmt == "json":
        text = _json_records(data)
        if text is None:
            import json
            text = json.dumps(data, indent=2, default=_complex_json) + "\n"
        return text
    if fmt == "table" and table is not None:
        return table(data)
    if rows is not None:
        data = rows
    if fmt == "table" and isinstance(data, dict):
        return "".join(f"{k} = {_fmt(v) if isinstance(v, float) else v}\n"
                       for k, v in data.items())
    return _csv(data)


def _finite(text: str) -> float:
    """argparse type for a float flag: nan and inf pass every `x <= 0`
    guard, so they are usage errors here."""
    value = parse_finite(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid finite number: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    # distinguish usage problems (64) from domain validation problems (2)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------- regulator

def _cmd_regulator_value(args, constants):
    from . import regulator as reg_mod
    records = []
    for m_sq in args.msq:
        if args.family == "log":
            value = reg_mod.log_integral_value(
                reg_mod.RegulatedLogIntegral(m_sq=m_sq, c1=args.c1)
            )
        else:
            value = reg_mod.quartic_integral_value(
                reg_mod.RegulatedQuarticIntegral(
                    m_sq=m_sq, c1=args.c1, c2=args.c2, c3=args.c3
                )
            )
        records.append({"m_sq": m_sq, "value": value})
    return _emit(args.format, records, table=lambda data: "".join(
        f"M^2 = {_fmt(r['m_sq'])}: {_complex_str(r['value'])}\n"
        for r in data
    ))


def _cmd_regulator_oracle(args, constants):
    from . import regulator as reg_mod
    records = []
    for m_sq in args.msq:
        if args.family == "log":
            oracle = reg_mod.log_derivative_oracle(m_sq)
            closed = reg_mod.log_derivative_closed_form(m_sq)
        else:
            oracle = reg_mod.quartic_third_derivative_oracle(m_sq)
            closed = reg_mod.quartic_third_derivative_closed_form(m_sq)
        records.append({"m_sq": m_sq, "oracle": oracle,
                        "closed_form": closed})
    return _emit(args.format, records, table=lambda data: "".join(
        f"M^2 = {_fmt(r['m_sq'])}: oracle {_fmt(r['oracle'])}, "
        f"closed form {_fmt(r['closed_form'])}\n"
        for r in data
    ))


# --------------------------------------------------------------- selfenergy

_SCHEME_FIELDS = {
    "S": ("zeta_s", "minus_log_s"),
    "V": ("zeta_v", "minus_log_v"),
    "S+V": ("zeta_sv_mean", "minus_log_sv_mean"),
    "SV": ("zeta_sv_geo", "minus_log_sv_geo"),
}


def _cmd_selfenergy_zeta(args, constants):
    from . import self_energy as se_mod
    schemes = tuple(_SCHEME_FIELDS) if args.scheme == "all" else (args.scheme,)
    if len(args.n) > MAX_SAMPLES:
        raise ValidationError(f"at most {MAX_SAMPLES} values of n")
    records = []
    for n in args.n:
        if args.z < 1 or n < 1:
            raise ValidationError("Z and n must be positive integers")
        if args.z > n:
            # before dividing: a huge Z^2/n^2 overflows the float range
            raise ValidationError("Z^2/n^2 must lie in (0, 1]")
        row = se_mod.zeta_row((args.z * args.z) / (n * n), constants)
        record = {"z": args.z, "n": n, "z_sq_over_n_sq": row.z_sq_over_n_sq}
        for s in schemes:
            for field in _SCHEME_FIELDS[s]:
                record[field] = getattr(row, field)
        records.append(record)

    def table(data):
        lines = []
        for r in data:
            lines.append(f"Z = {r['z']}, n = {r['n']}  "
                         f"(Z^2/n^2 = {_fmt(r['z_sq_over_n_sq'])})")
            for s in schemes:
                zf, lf = _SCHEME_FIELDS[s]
                lines.append(f"  zeta<{s}> = {r[zf]:.10g}"
                             f"   -ln zeta = {r[lf]:.10g}")
        return "\n".join(lines) + "\n"
    return _emit(args.format, records, table=table)


def _cmd_selfenergy_onshell(args, constants):
    from . import self_energy as se_mod
    m = args.m if args.m is not None else constants.electron_mass
    fix = se_mod.fix_on_shell(m, constants)
    p_sq = m * m
    if p_sq == 0.0:
        raise ValidationError(f"m = {m!r} is so small that p^2 = m^2 "
                              "underflows to 0")
    # the increment at the fixed mu2, evaluated rather than assumed zero
    delta_m = se_mod.mass_increment(p_sq, m, fix.mu2, constants)
    coeff = se_mod.sigma_coefficients(p_sq, m, fix.mu2, constants)
    return _emit(args.format, {"m": m, "mu2": fix.mu2, "z2": fix.z2,
                               "delta_m": delta_m, "a": coeff.a,
                               "b": coeff.b})


# ---------------------------------------------------------------------- qed

def _load_table(args):
    if args.table:
        return load_particle_table_file(args.table)
    return default_particle_table()


def _cmd_qed_run(args, constants):
    from . import qed as qed_mod
    model = qed_mod.BetaModel(_load_table(args))
    curve = qed_mod.evolve_alpha(args.qmax, model, steps=args.steps,
                                 constants=constants)
    return _emit(args.format, [
        {"q_gev": q, "alpha": a, "inverse_alpha": 1.0 / a}
        for q, a in curve.samples
    ])


def _cmd_qed_fit(args, constants):
    from . import qed as qed_mod
    model = qed_mod.BetaModel(_load_table(args))
    fit = qed_mod.fit_light_quarks(model, args.target, constants)
    return _emit(args.format, vars(fit))


# ---------------------------------------------------------------------- qcd

def _cmd_qcd_lambda(args, constants):
    from . import qcd as qcd_mod
    value = qcd_mod.lambda_qcd(args.alpha, args.nf, constants)
    return _emit(args.format, {"lambda_gev": value},
                 table=lambda r: f"{r['lambda_gev']:.3g} GeV\n")


def _cmd_qcd_alpha_s_lambda(args, constants):
    from . import qcd as qcd_mod
    scheme = qcd_mod.make_scheme(args.nf, args.lambda_gev)
    value = qcd_mod.alpha_s_lambda(args.q, scheme)
    return _emit(args.format, {"alpha_s": value},
                 table=lambda r: f"{r['alpha_s']:.10g}\n")


def _cmd_qcd_alpha_s_mu(args, constants):
    from . import qcd as qcd_mod
    value = qcd_mod.alpha_s_mu(args.q, args.mu, args.alpha_mu, args.nf)
    return _emit(args.format, {"alpha_s": value},
                 table=lambda r: f"{r['alpha_s']:.10g}\n")


def _cmd_qcd_run(args, constants):
    from . import qcd as qcd_mod
    model = qcd_mod.MassiveQcdModel(
        table=_load_table(args), alpha_s_mz=args.anchor, flavor=args.flavor
    )
    result = qcd_mod.evolve_alpha_s_massive(
        model, args.qmin, steps=args.steps, constants=constants
    )
    samples = [{"q_gev": q, "alpha_s": a} for q, a in result.curve.samples]
    return _emit(args.format, {
        "flavor": args.flavor,
        "lambda_peak": result.lambda_peak,
        "alpha_max": result.alpha_max,
        "samples": samples,
    }, rows=samples)


def _cmd_qcd_threshold(args, constants):
    from . import qcd as qcd_mod
    est = qcd_mod.hadronization_threshold(args.lambda_gev, args.alphamax)
    return _emit(args.format, {
        "lambda_gev": est.lambda_i, "alpha_max": est.alpha_max,
        "length_fm": est.length_scale, "energy_gev": est.energy,
    })


# ------------------------------------------------------------------- effpot

def _effpot_scheme(args):
    from . import potential as pot_mod
    p = pot_mod.PotentialParams(sigma=args.sigma, lam=args.lam)
    return p, pot_mod.scheme_for(args.sector, p)


def _cmd_effpot_table(args, constants):
    from . import potential as pot_mod
    broken, origin = map(vars, pot_mod.two_phase_table(*_effpot_scheme(args)))
    pairs = [(q, complex(b), complex(origin[q])) for q, b in broken.items()]
    rows = [{"quantity": q, "broken_re": b.real, "broken_im": b.imag,
             "origin_re": o.real, "origin_im": o.imag} for q, b, o in pairs]

    def table(data):
        lines = [f"sector: {args.sector}",
                 f"{'quantity':<10}{'broken vacuum':<42}origin"]
        lines += [f"{q:<10}{_complex_str(b):<42}{_complex_str(o)}"
                  for q, b, o in pairs]
        return "\n".join(lines) + "\n"
    return _emit(args.format, {"sector": args.sector, "broken": broken,
                               "origin": origin}, table=table, rows=rows)


def _potential_rows(phis, p, c):
    from . import potential as pot_mod
    rows = []
    for phi in phis:
        v = pot_mod.one_loop_potential(phi, p, c)
        rows.append({"phi": phi, "re_v": v.real, "im_v": v.imag})
    return rows


def _cmd_effpot_value(args, constants):
    return _emit(args.format, _potential_rows(args.phi, *_effpot_scheme(args)))


def _cmd_effpot_scan(args, constants):
    if not 2 <= args.n <= MAX_SAMPLES:
        raise ValidationError(f"scan needs 2 to {MAX_SAMPLES} points")
    if args.phimax <= 0:
        raise ValidationError("phimax must be positive")
    step = args.phimax / (args.n - 1)
    phis = [i * step for i in range(args.n)]
    return _emit(args.format, _potential_rows(phis, *_effpot_scheme(args)))


def _cmd_effpot_derivs(args, constants):
    from . import potential as pot_mod
    p, c = _effpot_scheme(args)
    return _emit(args.format,
                 [vars(pot_mod.sector_report(phi, p, c)) for phi in args.phi])


# --------------------------------------------------------------------- lamb

def _cmd_lamb_2s2p(args, constants):
    from . import lamb as lamb_mod
    convention = "standard_2l" if args.convention == "2l" else "alt_3l"
    mode = "frozen_constant" if args.b2r == "frozen" else "formula"
    mu = lamb_mod.reduced_mass(constants.electron_mass,
                               constants.proton_mass)
    coeffs = lamb_mod.radiative_coefficients(mu, constants.g_factor, mode,
                                             constants)
    # the flags default to None so that building the parser needs no lamb
    vp = lamb_mod.DEFAULT_VP_MHZ if args.vp is None else args.vp
    nuclear = (lamb_mod.DEFAULT_NUCLEAR_MHZ if args.nuclear is None
               else args.nuclear)
    report = lamb_mod.lamb_2s_2p(
        mu_obs=mu, b2r=coeffs.b2r, vp_mhz=vp, nuclear_mhz=nuclear,
        convention=convention, constants=constants,
    )

    def table(data):
        lines = [f"convention: {convention}, b2r mode: {mode}"]
        lines += [f"{k:<22}{v / 1e6:18.6f} MHz" for k, v in data.items()]
        return "\n".join(lines) + "\n"
    return _emit(args.format, vars(report), table=table)


def _cmd_lamb_rde(args, constants):
    from . import lamb as lamb_mod
    freq = lamb_mod.rde_transition_1s2s(args.atom, constants)
    return _emit(args.format, {"atom": args.atom,
                               "transition": args.transition,
                               "frequency_hz": freq},
                 table=lambda r: f"{r['frequency_hz']:.10g} Hz\n")


def _cmd_lamb_vp(args, constants):
    from . import lamb as lamb_mod
    if args.mass == "electron":
        mass = constants.electron_mass
    else:
        mass = lamb_mod.reduced_mass(constants.electron_mass,
                                     constants.proton_mass)
    shift = lamb_mod.uehling_2s_shift(mass, constants)
    return _emit(args.format, {"mass_mev": mass, "shift_mhz": shift},
                 table=lambda r: f"{r['shift_mhz']:.10g} MHz\n")


# ---------------------------------------------------------- constants/fixtures

def _cmd_constants_show(args, constants):
    return _emit(args.format, vars(constants))


# fixtures are display strings: csv and table both print the plain text

def _cmd_fixtures_show(args, constants):
    from . import fixtures as fixtures_mod
    text = fixtures_mod.show(args.key)
    if args.format == "json":
        return _emit("json", {"key": args.key, "text": text})
    return text + "\n"


def _cmd_fixtures_list(args, constants):
    from . import fixtures as fixtures_mod
    table = fixtures_mod.load_fixtures()
    if args.format == "json":
        return _emit("json", table)
    return "".join(f"{k}: {v}\n" for k, v in table.items())


# ------------------------------------------------------------------ wiring

def _family(sub, name, help):
    p = sub.add_parser(name, help=help)
    return p.add_subparsers(dest="verb", parser_class=_Parser, required=True)


def build_parser() -> _Parser:
    root = _Parser(prog="rrm-lab",
                   description="Regulated loop integrals and their physics")
    sub = root.add_subparsers(dest="command", parser_class=_Parser,
                              required=True)
    # the flags every leaf takes, declared once and copied into each leaf
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value constants override file")
    common.add_argument("--format", choices=("table", "csv", "json"),
                        default="table")
    common.add_argument("--out", help="write output to this path")

    def leaf(fam, name, handler):
        p = fam.add_parser(name, parents=[common])
        p.set_defaults(handler=handler)
        return p

    fam = _family(sub, "regulator", "regulated integrals and oracles")
    p = leaf(fam, "value", _cmd_regulator_value)
    p.add_argument("--family", choices=("log", "quartic"), required=True)
    p.add_argument("--msq", type=_finite, nargs="+", required=True)
    p.add_argument("--c1", type=_finite, default=0.0)
    p.add_argument("--c2", type=_finite, default=0.0)
    p.add_argument("--c3", type=_finite, default=0.0)
    p = leaf(fam, "oracle", _cmd_regulator_oracle)
    p.add_argument("--family", choices=("log", "quartic"), required=True)
    p.add_argument("--msq", type=_finite, nargs="+", required=True)

    fam = _family(sub, "selfenergy", "self-energy and zeta schemes")
    p = leaf(fam, "zeta", _cmd_selfenergy_zeta)
    p.add_argument("--Z", dest="z", type=int, required=True)
    p.add_argument("--n", type=int, nargs="+", required=True)
    p.add_argument("--scheme", choices=("S", "V", "S+V", "SV", "all"),
                   default="all")
    p = leaf(fam, "onshell", _cmd_selfenergy_onshell)
    p.add_argument("--m", type=_finite, help="mass in MeV")

    fam = _family(sub, "qed", "electromagnetic running coupling")
    p = leaf(fam, "run", _cmd_qed_run)
    p.add_argument("--qmax", type=_finite, required=True)
    p.add_argument("--table", help="particle table override")
    p.add_argument("--steps", type=int)
    p = leaf(fam, "fit", _cmd_qed_fit)
    p.add_argument("--target", type=_finite, required=True)
    p.add_argument("--table", help="particle table override")

    fam = _family(sub, "qcd", "strong running coupling")
    p = leaf(fam, "lambda", _cmd_qcd_lambda)
    p.add_argument("--alpha", type=_finite, required=True)
    p.add_argument("--nf", type=int, required=True)
    p = leaf(fam, "alpha-s-lambda", _cmd_qcd_alpha_s_lambda)
    p.add_argument("--q", type=_finite, required=True)
    p.add_argument("--lambda", dest="lambda_gev", type=_finite, required=True)
    p.add_argument("--nf", type=int, required=True)
    p = leaf(fam, "alpha-s-mu", _cmd_qcd_alpha_s_mu)
    p.add_argument("--q", type=_finite, required=True)
    p.add_argument("--mu", type=_finite, required=True)
    p.add_argument("--alpha-mu", dest="alpha_mu", type=_finite, required=True)
    p.add_argument("--nf", type=int, required=True)
    p = leaf(fam, "run", _cmd_qcd_run)
    p.add_argument("--flavor", choices=("u", "d", "s", "c", "b"),
                   required=True)
    p.add_argument("--qmin", type=_finite, required=True)
    p.add_argument("--table", help="particle table override")
    p.add_argument("--anchor", type=_finite, default=0.118,
                   help="alpha_s at the Z mass")
    p.add_argument("--steps", type=int)
    p = leaf(fam, "threshold", _cmd_qcd_threshold)
    p.add_argument("--lambda", dest="lambda_gev", type=_finite, required=True)
    p.add_argument("--alphamax", type=_finite, required=True)

    fam = _family(sub, "effpot", "effective potential")
    for verb, handler in (("table", _cmd_effpot_table),
                          ("value", _cmd_effpot_value),
                          ("scan", _cmd_effpot_scan),
                          ("derivs", _cmd_effpot_derivs)):
        p = leaf(fam, verb, handler)
        p.add_argument("--sigma", type=_finite, required=True)
        p.add_argument("--lambda", dest="lam", type=_finite, required=True)
        p.add_argument("--sector", choices=("ssb", "symmetric"),
                       default="ssb")
        if verb in ("value", "derivs"):
            p.add_argument("--phi", type=_finite, nargs="+", required=True)
        if verb == "scan":
            p.add_argument("--phimax", type=_finite, required=True)
            p.add_argument("--n", type=int, required=True)

    fam = _family(sub, "lamb", "hydrogen transitions")
    p = leaf(fam, "2s2p", _cmd_lamb_2s2p)
    p.add_argument("--convention", choices=("2l", "3l"), default="2l")
    p.add_argument("--b2r", choices=("formula", "frozen"), default="frozen")
    p.add_argument("--vp", type=_finite,
                   help="vacuum-polarization term in MHz")
    p.add_argument("--nuclear", type=_finite,
                   help="nuclear-size term in MHz")
    p = leaf(fam, "rde", _cmd_lamb_rde)
    p.add_argument("--atom", choices=("H", "D"), required=True)
    p.add_argument("--transition", choices=("1s2s",), required=True)
    p = leaf(fam, "vp", _cmd_lamb_vp)
    p.add_argument("--mass", choices=("electron", "reduced"),
                   default="electron")

    fam = _family(sub, "constants", "pinned physical constants")
    leaf(fam, "show", _cmd_constants_show)

    fam = _family(sub, "fixtures", "read-only reference values")
    p = leaf(fam, "show", _cmd_fixtures_show)
    p.add_argument("key")
    leaf(fam, "list", _cmd_fixtures_list)

    return root


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        constants = (load_config(args.config) if args.config
                     else DEFAULT_CONSTANTS)
        text = args.handler(args, constants)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # float ** overflow, 1/x of an underflow
        print(f"numerical failure: {args.command} {args.verb}: an input is "
              f"outside the float range ({type(exc).__name__})",
              file=sys.stderr)
        return 3
    except Exception as exc:  # a defect, or a family module that will not load
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
