"""Acceptance gates. Every check drives the installed CLI as a subprocess;
nothing in this file imports the library.

Each test prints one scoreboard line (CRITERION n: PASS/FAIL) to the real
stdout so a piped run still shows the verdicts. Reference numbers are quoted
to the digits given at source. The source rounds some entries and truncates
others, so a computed value passes when it is rounded or truncated to the
quoted digits, capped at 8 significant figures: -1/2 <= (got - quoted)/ulp
< 1. Quoted entries that contradict the table's own other entries are kept
verbatim in the ERRATA record, beside the value their row implies.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

CLI = (sys.executable, "-m", "rrm_lab.cli")
REPO = Path(__file__).resolve().parent.parent


def run_cli(*args):
    return subprocess.run([*CLI, *args], capture_output=True, text=True)


def cli_json(*args):
    proc = run_cli(*args, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def cli_csv(*args):
    proc = run_cli(*args, "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


@pytest.fixture
def report(capfd):
    """Scoreboard line that survives output capture."""
    def _report(num, ok, detail):
        line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def as_complex(d):
    return complex(d["re"], d["im"])


# --------------------------------------------------------------------------

def test_criterion_01_regulator_oracles(report):
    t0 = time.perf_counter()
    grid = [10.0 ** (-3.0 + 0.5 * k) for k in range(13)]
    msq = [repr(m) for m in grid]
    worst = 0.0
    for family in ("log", "quartic"):
        rows = cli_json("regulator", "oracle", "--family", family,
                        "--msq", *msq)
        assert len(rows) == 13
        for row in rows:
            err = abs(row["oracle"] - row["closed_form"]) \
                / abs(row["closed_form"])
            worst = max(worst, err)
    # C-constant independence: differences of regulated values between two
    # mass points must not move when the scheme constant does
    m_pair = ("1", repr(math.exp(2.0)))
    diffs = []
    for c1 in ("0", "2.5", "-3.1"):
        rows = cli_json("regulator", "value", "--family", "log",
                        "--msq", *m_pair, "--c1", c1)
        diffs.append(as_complex(rows[0]["value"])
                     - as_complex(rows[1]["value"]))
    spread = max(abs(d - diffs[0]) for d in diffs[1:])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and spread <= 1e-12 * abs(diffs[0]) and elapsed < 5.0
    report(1, ok, f"worst oracle rel err {worst:.2e}, scheme spread "
                  f"{spread:.2e}, {elapsed:.1f}s")


def test_criterion_02_on_shell_fixing(report):
    out = cli_json("selfenergy", "onshell")
    m = out["m"]
    mu2_want = m * math.exp(-5.0 / 6.0)
    ok_mu2 = abs(out["mu2"] - mu2_want) <= 1e-12 * m
    ok_dm = abs(out["delta_m"]) <= 1e-12 * m
    ok_z2 = abs(out["z2"] - 0.9992263) <= 1e-7
    ok = ok_mu2 and ok_dm and ok_z2
    report(2, ok, f"delta_m {out['delta_m']:.2e} at mu2 = m*exp(-5/6), "
                  f"Z2 {out['z2']:.10f}")


ZETA_REFS = {
    0.0625: (("zeta_s", 1.546093458e-4, 8),
             ("zeta_v", 6.6564192e-6, 8),
             ("zeta_sv_mean", 8.0632e-5, 5),
             ("zeta_sv_geo", 3.2080284e-5, 8)),
    0.25: (("zeta_s", 7.446539697e-4, 8),
           ("zeta_v", 2.66256771e-5, 8),
           ("zeta_sv_mean", 3.85639e-4, 6),
           ("zeta_sv_geo", 1.40808e-4, 6)),
    1.0: (("zeta_s", 3.773719345e-3, 8),
          ("zeta_v", 1.06502e-4, 6),
          ("zeta_sv_mean", 1.94011e-3, 6),
          ("zeta_sv_geo", 6.339626e-4, 7)),
}

LOG_REFS = {
    0.0625: (("minus_log_s", 8.77461), ("minus_log_v", 11.91992886),
             ("minus_log_sv_mean", 9.425609),
             ("minus_log_sv_geo", 10.34727)),
    0.25: (("minus_log_s", 7.20259), ("minus_log_v", 10.5336345),
           ("minus_log_sv_mean", 7.860609),
           ("minus_log_sv_geo", 8.86816225)),
    1.0: (("minus_log_s", 5.57969), ("minus_log_v", 9.147340142),
          ("minus_log_sv_mean", 6.2450103),
          ("minus_log_sv_geo", 7.36351521)),
}


# The source computed its zeta table at 1/alpha = 137.036, not at the
# package's pinned 137.03599: the quoted zeta_v / (2 Z^2/n^2) gives
# 1/alpha = 137.036000 at Z^2/n^2 = 1/16 and 137.035999 at 1/4, and the
# root-solved zeta_s, which does not scale as alpha^2, agrees (within
# 0.4 ulp at 137.036; 1.2, 5.9 and 3.1 ulp off at 137.03599). The gate
# passes this alpha through --config; the default-alpha values are pinned in
# test_self_energy.ZETA_FROZEN.
SOURCE_INVERSE_ALPHA = 137.036

# comparator for the -ln columns: half a unit in the fifth decimal
LOG_TOL = 0.5e-5

# Quoted entries that contradict their own row, by (ratio, field):
# (quoted verbatim, value implied by the row's other quoted entries, the
# spread of that implied value allowed by the precision of those entries).
ERRATA = {
    # the geometric mean taken with the truncated zeta_v(1) = 1.06502e-4:
    # sqrt(3.773719345e-3 * 1.06502e-4) = 6.33962663e-4. The table's own
    # untruncated zeta_v(1) is 16 zeta_v(1/16) = 1.065027072e-4 (4 zeta_v(1/4)
    # = 1.065027084e-4 agrees), and sqrt(zeta_s(1) * 1.065027072e-4) =
    # 6.3396476752e-4. Spread: half the summed relative units of the last
    # quoted digit of zeta_s(1) and zeta_v(1/16).
    (1.0, "zeta_sv_geo"): (
        6.339626e-4,
        math.sqrt(3.773719345e-3 * 16.0 * 6.6564192e-6),
        6.34e-4 * 0.5 * (1e-12 / 3.773719345e-3 + 1e-13 / 6.6564192e-6)),
    # -ln of the same row's quoted zeta_sv_geo = 1.40808e-4 is 8.8681133,
    # not 8.86816225; one unit in the sixth digit of that zeta moves -ln by
    # 1e-9 / 1.40808e-4 = 7.1e-6
    (0.25, "minus_log_sv_geo"): (
        8.86816225, -math.log(1.40808e-4), 1e-9 / 1.40808e-4),
}


def test_criterion_03_zeta_reference_values(report, tmp_path):
    # (ratio, field) -> (quoted value, unit of its last kept digit); the
    # -ln columns use the fixed LOG_TOL instead
    quoted = {(ratio, field): (ref, 10.0 ** (math.floor(math.log10(ref))
                                             - (digits - 1)))
              for ratio, rows in ZETA_REFS.items()
              for field, ref, digits in rows}
    quoted.update({(ratio, field): (ref, LOG_TOL)
                   for ratio, rows in LOG_REFS.items()
                   for field, ref in rows})
    # each erratum must contradict its row by more than the quoted
    # precision, on the data alone, so that no correction can hide an entry
    # that is merely off
    fails = [f"erratum {field}@{ratio:g} does not contradict its row"
             for (ratio, field), (ref, implied, spread) in ERRATA.items()
             if ref != quoted[ratio, field][0]
             or abs(ref - implied) <= quoted[ratio, field][1] + spread]

    config = tmp_path / "source_alpha.txt"
    config.write_text(f"alpha = {1.0 / SOURCE_INVERSE_ALPHA!r}\n")
    t0 = time.perf_counter()
    rows = cli_json("selfenergy", "zeta", "--Z", "1", "--n", "4", "2", "1",
                    "--scheme", "all", "--config", str(config))
    elapsed = time.perf_counter() - t0
    by_ratio = {round(r["z_sq_over_n_sq"], 12): r for r in rows}
    misses = {"zeta": 0, "log": 0}
    for (ratio, field), (ref, unit) in quoted.items():
        got = by_ratio[ratio][field]
        kind = "log" if field.startswith("minus_log") else "zeta"
        if (ratio, field) in ERRATA:
            _, implied, spread = ERRATA[ratio, field]
            ok_entry = abs(got - implied) <= spread
            why = f"off its implied {implied:.10e} by {got - implied:+.2e}"
        elif kind == "zeta":
            dev = (got - ref) / unit
            ok_entry = -0.5 <= dev < 1.0
            why = f"off by {dev:+.2f} ulp (quoted {ref:.10e})"
        else:
            ok_entry = abs(got - ref) <= unit
            why = f"off by {got - ref:+.2e}"
        if not ok_entry:
            misses[kind] += 1
            fails.append(f"{field}@{ratio:g} {why} (got {got:.10e})")
    ok = not fails and elapsed < 1.0
    detail = (f"{12 - misses['zeta']}/12 zeta entries and "
              f"{12 - misses['log']}/12 log columns match at 1/alpha = "
              f"{SOURCE_INVERSE_ALPHA}, {len(ERRATA)} errata checked "
              f"against their rows, {elapsed:.2f}s")
    if fails:
        detail += "; " + "; ".join(fails)
    report(3, ok, detail)


def test_criterion_04_lambda_qcd_values(report):
    targets = ((3, 0.240, 0.001), (4, 0.150, 0.001),
               (5, 0.0858, 0.0001), (6, 0.0442, 0.0001))
    bad = []
    for nf, want, unit in targets:
        lam = cli_json("qcd", "lambda", "--alpha", "0.1176",
                       "--nf", str(nf))["lambda_gev"]
        # quoted values keep 3 significant figures; allow one unit in the
        # last of them
        if abs(lam - want) > unit * (1.0 + 1e-9):
            bad.append(f"nf={nf}: {lam:.6f} vs {want}")
        if nf == 5:
            lam5 = lam
    back = cli_json("qcd", "alpha-s-lambda", "--q", "91.1876",
                    "--lambda", repr(lam5), "--nf", "5")["alpha_s"]
    rt = abs(back - 0.1176) / 0.1176
    ok = not bad and rt <= 1e-12
    report(4, ok, f"lambda values within one unit of last quoted digit, "
                  f"round trip rel err {rt:.2e}"
                  + ("; " + "; ".join(bad) if bad else ""))


def test_criterion_05_coupling_inversion_grid(report):
    lo, hi = 1.0, 91.1876
    grid = [lo + i * (hi - lo) / 4.0 for i in range(5)]
    worst = 0.0
    for q in grid:
        for mu in grid:
            mid = cli_json("qcd", "alpha-s-mu", "--q", repr(q),
                           "--mu", repr(mu), "--alpha-mu", "0.1176",
                           "--nf", "5")["alpha_s"]
            back = cli_json("qcd", "alpha-s-mu", "--q", repr(mu),
                            "--mu", repr(q), "--alpha-mu", repr(mid),
                            "--nf", "5")["alpha_s"]
            worst = max(worst, abs(back - 0.1176) / 0.1176)
    ok = worst <= 1e-12
    report(5, ok, f"5x5 grid round trip, worst rel err {worst:.2e}")


def test_criterion_06_qed_evolution_to_mz(report):
    # Red since the initial commit, and limited by its source data rather
    # than by the numerics: the code gives 1/alpha(M_Z) = 128.1654. The
    # closed-form running 1/alpha0 - (2/3 pi) sum N_c Q_f^2 [H(M_Z/m) -
    # H(Q_start/m)] with the integrated loop shape H gives 128.1653579543,
    # and a hand sum over the particle table gives 128.17. Each sample is
    # that closed form, so a run sampled at two points must end on the same
    # value as the default grid. Reaching 128.89 needs the u, d, s masses
    # scaled by 5.515 (test_qed.test_fit_light_quarks_frozen). Which
    # light-quark masses the source used is not in the repository (PAPER.md
    # holds only the abstract), so the window, the masses and this
    # assertion stay as they are until the source's mass table is.
    t0 = time.perf_counter()
    _, rows = cli_csv("qed", "run", "--qmax", "91.1880")
    inv = float(rows[-1][2])
    _, rows_coarse = cli_csv("qed", "run", "--qmax", "91.1880",
                             "--steps", "2")
    inv_coarse = float(rows_coarse[-1][2])
    elapsed = time.perf_counter() - t0
    main_ok = abs(inv - 128.89) <= 0.5
    sampling_ok = abs(inv - inv_coarse) < 1e-3
    ok = main_ok and sampling_ok and elapsed < 60.0
    report(6, ok, f"1/alpha(M_Z) = {inv:.9f} vs 128.89 +- 0.5 "
                  f"({'inside' if main_ok else 'outside'} band, "
                  f"off by {abs(inv - 128.89):.4f}), sampling at 2 points "
                  f"moves it {abs(inv - inv_coarse):.1e}, {elapsed:.1f}s")


def test_criterion_07_hadronization_threshold(report):
    est = cli_json("qcd", "threshold", "--lambda", "7.04",
                   "--alphamax", "0.161")
    ok_l = abs(est["length_fm"] - 0.02805) <= 1e-4
    ok_e_exact = est["energy_gev"] == 0.161 * 7.04
    ok_e_band = abs(est["energy_gev"] - 1.12) / 1.12 < 0.02
    # massive curve against the massless one-loop form, same anchor
    lam5 = cli_json("qcd", "lambda", "--alpha", "0.118",
                    "--nf", "5")["lambda_gev"]
    beta0 = 11.0 - 2.0 * 5.0 / 3.0
    _, rows = cli_csv("qcd", "run", "--flavor", "u", "--qmin", "10",
                      "--steps", "20")
    worst = 0.0
    for q_text, a_text in rows:
        q, a = float(q_text), float(a_text)
        ref = 4.0 * math.pi / (beta0 * math.log(q * q / (lam5 * lam5)))
        worst = max(worst, abs(a - ref) / ref)
    ok = ok_l and ok_e_exact and ok_e_band and worst < 0.05
    report(7, ok, f"L = {est['length_fm']:.6f} fm, E = "
                  f"{est['energy_gev']:.4f} GeV (exact product), massive "
                  f"vs one-loop worst rel dev {worst:.2%} on [10, 91]")


KAPPA = 1.0 / (2.0 * (4.0 * math.pi) ** 2)


def reference_two_phase_entries(sigma, lam):
    phi1 = math.sqrt(6.0 * sigma / lam)
    ln2 = math.log(2.0)
    broken = {
        "phi": phi1,
        "v": 0.0 + 0.0j,
        "d1": 0.0 + 0.0j,
        "d2": complex(2.0 * sigma),
        "d3": complex(lam * phi1 * (1.0 + 3.0 * KAPPA * lam)),
        "d4": complex(lam * (1.0 + 9.0 * KAPPA * lam)),
    }
    origin = {
        "phi": 0.0,
        "v": (3.0 * sigma ** 2 / (2.0 * lam)
              - KAPPA * sigma ** 2 * complex(3.75 + ln2 / 2.0,
                                             -math.pi / 2.0)),
        "d1": 0.0 + 0.0j,
        "d2": -sigma * (1.0 - KAPPA * lam * complex(3.0 + ln2, -math.pi)),
        "d3": 0.0 + 0.0j,
        "d4": lam * (1.0 - 3.0 * KAPPA * lam * complex(ln2, -math.pi)),
    }
    return {"broken": broken, "origin": origin}


FD_STENCILS = {
    1: (((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)), 12.0, 1e-3),
    2: (((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0)),
        12.0, 2e-3),
    3: (((-3, 1.0), (-2, -8.0), (-1, 13.0), (1, -13.0), (2, 8.0),
         (3, -1.0)), 8.0, 4e-3),
    4: (((-4, 7.0 / 240.0), (-3, -2.0 / 5.0), (-2, 169.0 / 60.0),
         (-1, -122.0 / 15.0), (0, 91.0 / 8.0), (1, -122.0 / 15.0),
         (2, 169.0 / 60.0), (3, -2.0 / 5.0), (4, 7.0 / 240.0)),
        1.0, 6e-3),
}


def test_criterion_08_potential_reference_values(report):
    worst_entry = 0.0
    for sigma, lam in ((1.0, 0.5), (0.25, 1.0)):
        table = cli_json("effpot", "table", "--sigma", repr(sigma),
                         "--lam", repr(lam), "--sector", "ssb")
        refs = reference_two_phase_entries(sigma, lam)
        for column in ("broken", "origin"):
            for key, want in refs[column].items():
                raw = table[column][key]
                got = as_complex(raw) if isinstance(raw, dict) \
                    else complex(raw)
                want = complex(want)
                err = abs(got - want) / max(abs(want), sigma ** 2)
                worst_entry = max(worst_entry, err)
    # finite differences against the analytic derivatives, one batched
    # value call for all stencil abscissae
    sigma, lam = 1.0, 0.5
    phi1 = math.sqrt(6.0 * sigma / lam)
    points = [f * phi1 for f in (0.1, 0.5, 1.0, 1.5)]
    abscissae = []
    for phi in points:
        for order in (1, 2, 3, 4):
            taps, _, hfrac = FD_STENCILS[order]
            h = hfrac * phi1
            abscissae.extend(phi + off * h for off, _ in taps)
    samples = cli_json("effpot", "value", "--sigma", repr(sigma),
                       "--lam", repr(lam), "--sector", "ssb",
                       "--phi", *[repr(x) for x in abscissae])
    values = [complex(s["re_v"], s["im_v"]) for s in samples]
    derivs = cli_json("effpot", "derivs", "--sigma", repr(sigma),
                      "--lam", repr(lam), "--sector", "ssb",
                      "--phi", *[repr(p) for p in points])
    worst_fd = 0.0
    cursor = 0
    for i, phi in enumerate(points):
        for order in (1, 2, 3, 4):
            taps, denom, hfrac = FD_STENCILS[order]
            h = hfrac * phi1
            acc = 0.0 + 0.0j
            for _, weight in taps:
                acc += weight * values[cursor]
                cursor += 1
            numeric = acc / (denom * h ** order)
            analytic = as_complex(derivs[i][f"d{order}"])
            scale = max(abs(analytic), sigma ** 2 / phi1 ** order)
            worst_fd = max(worst_fd, abs(numeric - analytic) / scale)
    ok = worst_entry <= 1e-10 and worst_fd <= 1e-6
    report(8, ok, f"24 reference entries worst rel err {worst_entry:.2e}, "
                  f"finite-difference worst rel err {worst_fd:.2e}")


def test_criterion_09_lamb_shift_decomposition(report):
    vp = cli_json("lamb", "vp")["shift_mhz"]
    ok_vp = abs(vp - (-27.13)) < 0.01
    out = cli_json("lamb", "2s2p")
    total = out["total"] / 1e6
    radiative = out["radiative"] / 1e6
    ok_total = abs(total - 1056.52) <= 0.5
    ok_rad = abs(radiative - 1083.5) <= 0.5
    ok = ok_vp and ok_total and ok_rad
    report(9, ok, f"total {total:.3f} MHz vs 1056.52 +- 0.5, radiative "
                  f"{radiative:.3f} MHz vs 1083.5 +- 0.5, rederived VP "
                  f"{vp:.4f} MHz")


def test_criterion_10_hydrogen_transitions(report):
    h = cli_json("lamb", "rde", "--atom", "H",
                 "--transition", "1s2s")["frequency_hz"]
    d = cli_json("lamb", "rde", "--atom", "D",
                 "--transition", "1s2s")["frequency_hz"]
    rel_h = abs(h - 2.466067984e15) / 2.466067984e15
    iso = d - h
    rel_iso = abs(iso - 6.7101527879e11) / 6.7101527879e11
    ok = rel_h <= 5e-6 and rel_iso <= 1e-3
    report(10, ok, f"1S-2S rel dev {rel_h:.2e} (cap 5e-6), isotope shift "
                   f"rel dev {rel_iso:.2e} (cap 1e-3)")


def test_criterion_11_property_suite(report):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest",
         str(Path(__file__).with_name("test_properties.py")), "-q"],
        capture_output=True, text=True, cwd=str(REPO),
    )
    elapsed = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    ok = proc.returncode == 0 and elapsed < 180.0
    report(11, ok, f"{tail}, {elapsed:.1f}s")
