import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from conftest import CLI, cli_csv, cli_json, run_cli, table_text
from test_golden import INDEX, _leaves

from rrm_lab import cli
from rrm_lab.constants import DEFAULT_CONSTANTS, default_particle_table
from rrm_lab.potential import PotentialParams, one_loop_potential, ssb_scheme


def test_lambda_human_format():
    proc = run_cli("qcd", "lambda", "--alpha", "0.1176", "--nf", "5")
    assert proc.returncode == 0
    assert proc.stdout == "0.0858 GeV\n"


def test_fixture_higgs_estimate():
    proc = run_cli("fixtures", "show", "higgs_estimate")
    assert proc.returncode == 0
    assert proc.stdout == "M_H = 138 GeV\n"


def test_fixture_list_complete():
    keys = set(cli_json("fixtures", "list"))
    assert keys == {"lamb_2s2p_measured", "lamb_2s2p_radiative_s",
                    "lamb_2s2p_radiative_s_plus_v",
                    "lamb_2s2p_radiative_sv", "lamb_2s2p_radiative_v",
                    "lamb_2s2p_covariant", "h_1s2s_measured",
                    "isotope_shift_measured", "alpha_s_mz",
                    "upsilon_splitting", "psi_splitting",
                    "higgs_window", "higgs_estimate"}


def test_validation_exit_code():
    proc = run_cli("qcd", "lambda", "--alpha", "0.1176", "--nf", "7")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_unknown_fixture_exit_code():
    proc = run_cli("fixtures", "show", "no_such_entry")
    assert proc.returncode == 2
    assert "no_such_entry" in proc.stderr


def test_numerics_exit_code():
    proc = run_cli("qcd", "run", "--flavor", "u", "--qmin", "0.15",
                   "--out", "/tmp/never_written.csv")
    assert proc.returncode == 3
    assert "0.181" in proc.stderr


def test_io_exit_code(tmp_path):
    proc = run_cli("constants", "show", "--out",
                   str(tmp_path / "missing" / "out.txt"))
    assert proc.returncode == 3


def test_usage_exit_codes():
    assert run_cli("bogus").returncode == 64
    assert run_cli("qcd", "bogus").returncode == 64
    assert run_cli("qcd", "lambda", "--alpha", "x", "--nf",
                   "5").returncode == 64
    assert run_cli("qcd", "lambda").returncode == 64
    assert run_cli("constants", "show", "--quiet").returncode == 64
    assert run_cli("qed", "run", "--qmax", "10", "--rtol",
                   "1e-10").returncode == 64
    # the oracles' error bound is fixed: no tolerance option
    assert run_cli("regulator", "oracle", "--family", "log", "--msq", "1",
                   "--rtol", "1e-10").returncode == 64


def test_determinism_byte_identical():
    a = run_cli("selfenergy", "zeta", "--Z", "1", "--n", "1", "2", "4")
    b = run_cli("selfenergy", "zeta", "--Z", "1", "--n", "1", "2", "4")
    assert a.stdout == b.stdout
    ja = run_cli("effpot", "table", "--sigma", "1", "--lambda", "0.5",
                 "--format", "json")
    jb = run_cli("effpot", "table", "--sigma", "1", "--lambda", "0.5",
                 "--format", "json")
    assert ja.stdout == jb.stdout


def test_out_matches_stdout(tmp_path):
    path = tmp_path / "x.csv"
    direct = run_cli("qed", "run", "--qmax", "10", "--steps", "5")
    run_cli("qed", "run", "--qmax", "10", "--steps", "5", "--out",
            str(path))
    assert path.read_text() == direct.stdout


def test_machine_precision_round_trip():
    # csv floats carry >= 10 significant digits
    header, rows = cli_csv("selfenergy", "onshell")
    row = dict(zip(header, rows[0]))
    z2 = float(row["z2"])
    assert abs(z2 - 0.999226325829) < 1e-11
    assert len(row["z2"].replace(".", "").lstrip("0")) >= 10


def test_config_override_flows_through():
    import os
    import tempfile
    with tempfile.NamedTemporaryFile("w", suffix=".txt",
                                     delete=False) as fh:
        fh.write("alpha = 0.0072\n")
        path = fh.name
    try:
        base = cli_json("selfenergy", "onshell")
        tweaked = cli_json("selfenergy", "onshell", "--config", path)
        assert tweaked["z2"] != base["z2"]
    finally:
        os.unlink(path)


def test_constants_show_lists_all_fields():
    data = cli_json("constants", "show")
    assert data["alpha"] == 1.0 / 137.03599
    assert data["m_z"] == 91.1880
    assert data["m_z_strong"] == 91.1876
    assert set(data) >= {"alpha", "m_z", "m_z_strong", "sin2_theta_w",
                         "ev_to_hz", "electron_mass", "proton_mass",
                         "deuteron_mass", "g_factor"}


def test_qed_run_csv_header():
    header, rows = cli_csv("qed", "run", "--qmax", "10", "--steps", "5")
    assert header == ["q_gev", "alpha", "inverse_alpha"]
    assert len(rows) == 5
    assert abs(float(rows[0][1]) - 1.0 / 137.03599) < 1e-14


def test_qcd_run_csv_header(tmp_path):
    path = tmp_path / "q.csv"
    proc = run_cli("qcd", "run", "--flavor", "b", "--qmin", "50",
                   "--out", str(path))
    assert proc.returncode == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "q_gev,alpha_s"


def test_effpot_scan_header():
    header, rows = cli_csv("effpot", "scan", "--sigma", "1", "--lambda",
                           "1", "--phimax", "3", "--n", "4")
    assert header == ["phi", "re_v", "im_v"]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]


def test_effpot_value_rows():
    header, rows = cli_csv("effpot", "value", "--sigma", "1", "--lambda",
                           "0.5", "--phi", "0.5", "1.0")
    assert header == ["phi", "re_v", "im_v"]
    assert len(rows) == 2


def test_lamb_transition_report_fields():
    data = cli_json("lamb", "2s2p")
    assert set(data) == {"baseline", "radiative", "vacuum_polarization",
                         "nuclear_size", "total"}
    assert data["total"] == (data["baseline"] + data["radiative"]
                             + data["vacuum_polarization"]
                             + data["nuclear_size"])


def test_lamb_rde_ten_digits():
    proc = run_cli("lamb", "rde", "--atom", "H", "--transition", "1s2s")
    assert proc.returncode == 0
    assert proc.stdout == "2.466068599e+15 Hz\n"


def test_regulator_oracle_json():
    data = cli_json("regulator", "oracle", "--family", "quartic",
                    "--msq", "1")
    assert len(data) == 1
    assert abs(data[0]["oracle"] - data[0]["closed_form"]) < 1e-10


def test_selfenergy_zeta_scheme_filter():
    data = cli_json("selfenergy", "zeta", "--Z", "1", "--n", "2",
                    "--scheme", "SV")
    assert "zeta_sv_geo" in data[0]
    assert "zeta_s" not in data[0]


def test_closed_form_command_loads_no_numpy_or_scipy():
    # the package has no runtime dependencies: run every golden case, which
    # covers every leaf of build_parser() in every format, in one process
    # and check that neither module was ever imported
    code = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from rrm_lab import cli
from test_golden import INDEX, _leaves

ran = set()
for case in INDEX.values():
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(case["argv"])
        except SystemExit as exc:
            code = exc.code
    assert code == case["exit"], case
    ran.add(tuple(case["argv"][:2]))
missing = sorted({path for path, _ in _leaves(cli.build_parser())} - ran)
heavy = {m.partition(".")[0] for m in sys.modules} & {"numpy", "scipy"}
print(len(INDEX), missing, sorted(heavy))
"""
    tests = str(Path(__file__).resolve().parent)
    proc = subprocess.run([sys.executable, "-c", code, tests],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "90 [] []"


# the rrm_lab modules a command may load besides cli, constants and errors:
# its own family's, and nothing of the other families
FAMILY_MODULES = {
    "regulator": {"regulator"},
    "selfenergy": {"self_energy"},
    "qed": {"qed"},
    "qcd": {"qcd"},
    "effpot": {"potential", "regulator"},
    "lamb": {"lamb"},
    "constants": set(),
    "fixtures": {"fixtures"},
}
# a leaf that needs more than its family's own module
LEAF_MODULES = {("qcd", "run"): {"qcd", "qed"}}


# what importlib.resources drags in; reading the bundled data needs none
DATA_READER_MODULES = ("importlib.resources", "pathlib", "zipfile",
                       "tempfile", "urllib.parse")


def _loaded_after(code, *args, flags=()):
    # run code in a fresh interpreter; it prints a json document last. The
    # package's own root leads the path, so -S (no site) still finds it
    root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *flags, "-c", code, *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _modules_loaded_by(argv):
    code = """
import contextlib, io, json, sys
from rrm_lab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("rrm_lab.")),
                  sorted(set(sys.argv[2:]) & set(sys.modules))]))
"""
    # without site, nothing but the command itself loads these modules
    exit_code, loaded, data_reader = _loaded_after(
        code, json.dumps(argv), *DATA_READER_MODULES, flags=("-S",))
    assert exit_code == 0
    assert data_reader == []
    return loaded


@pytest.mark.parametrize(
    "family", sorted({path[0] for path, _ in _leaves(cli.build_parser())})
)
def test_command_loads_only_its_family(family):
    # a fresh interpreter per leaf: the first successful golden case of each
    leaves = {}
    for _, case in sorted(INDEX.items()):
        if case["argv"][0] == family and case["exit"] == 0:
            leaves.setdefault(tuple(case["argv"][:2]), case["argv"])
    for leaf, argv in leaves.items():
        own = LEAF_MODULES.get(leaf, FAMILY_MODULES[family])
        assert _modules_loaded_by(argv) == sorted(
            f"rrm_lab.{m}" for m in {"cli", "constants", "errors", *own}), leaf


def test_package_import_loads_no_submodule():
    loaded = _loaded_after(
        "import json, sys, rrm_lab\n"
        "print(json.dumps([m for m in sys.modules if m.startswith('rrm_lab.')"
        "]))"
    )
    assert loaded == []


def test_every_export_is_its_home_module_object():
    import importlib
    import types

    import rrm_lab
    assert set(rrm_lab.__all__) <= set(dir(rrm_lab))
    for name in rrm_lab.__all__:
        home = importlib.import_module(f"rrm_lab.{rrm_lab._HOME[name]}")
        value = getattr(rrm_lab, name)
        assert value is getattr(home, name), name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == home.__name__, name
    with pytest.raises(AttributeError):
        rrm_lab.no_such_name


def test_first_read_binds_every_name_of_the_module():
    # a name first read while something has patched its module must not keep
    # the patch: the first read of any qed name binds all of them
    loaded = _loaded_after(
        "import json, rrm_lab\n"
        "from rrm_lab import qed\n"
        "original = qed.fit_light_quarks\n"
        "rrm_lab.evolve_alpha\n"
        "qed.fit_light_quarks = None\n"
        "print(json.dumps(rrm_lab.fit_light_quarks is original))"
    )
    assert loaded is True


def test_unexpected_exception_is_one_line_exit_3(monkeypatch, capsys):
    def broken(args, constants):
        raise RuntimeError("handler defect")
    monkeypatch.setattr(cli, "_cmd_constants_show", broken)
    assert cli.main(["constants", "show"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: RuntimeError: handler defect\n"


def test_family_that_fails_to_import_is_exit_3(monkeypatch, capsys):
    import rrm_lab
    monkeypatch.delattr(rrm_lab, "qcd", raising=False)
    monkeypatch.setitem(sys.modules, "rrm_lab.qcd", None)
    assert cli.main(["qcd", "lambda", "--alpha", "0.1176", "--nf", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "ModuleNotFoundError" in err
    assert "Traceback" not in err


def test_interrupt_is_not_caught(monkeypatch):
    def interrupted(args, constants):
        raise KeyboardInterrupt
    monkeypatch.setattr(cli, "_cmd_constants_show", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["constants", "show"])


class _ReadLog:
    """Parsed arguments that record which of them a handler reads."""

    def __init__(self, values):
        self._values = values
        self.read = set()

    def __getattr__(self, name):
        if name not in self._values:
            raise AttributeError(name)
        self.read.add(name)
        return self._values[name]


def test_every_flag_is_read():
    # a flag no handler reads parses and then does nothing; run every
    # successful golden case and collect what each leaf's handler reads
    parser = cli.build_parser()
    read = {}
    for case in INDEX.values():
        if case["exit"] != 0:
            continue
        args = _ReadLog(vars(parser.parse_args(case["argv"])))
        args.handler(args, DEFAULT_CONSTANTS)
        read.setdefault(tuple(case["argv"][:2]), set()).update(args.read)
    unread = []
    for path, leaf in _leaves(parser):
        declared = {a.dest for a in leaf._actions} - {"help", "config", "out"}
        unread += [f"{' '.join(path)}: {dest}"
                   for dest in sorted(declared - read.get(path, set()))]
    assert not unread, unread


def test_qcd_run_blow_up_is_one_line_exit_3():
    proc = run_cli("qcd", "run", "--flavor", "c", "--qmin", "0.5",
                   "--anchor", "0.2")
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert "exceeded 4 pi" in lines[0] and "last valid Q = " in lines[0]


def test_json_outputs_parse():
    for args in (("qcd", "threshold", "--lambda", "7.04", "--alphamax",
                  "0.161"),
                 ("qed", "fit", "--target", "128.89"),
                 ("lamb", "vp", "--mass", "reduced")):
        proc = run_cli(*args, "--format", "json")
        assert proc.returncode == 0
        json.loads(proc.stdout)


@pytest.mark.parametrize("argv,config", [
    (("regulator", "value", "--family", "quartic", "--msq", "nan"), None),
    (("selfenergy", "onshell", "--m", "nan"), None),
    (("effpot", "value", "--sigma", "1", "--lambda", "0.5", "--phi", "nan"),
     None),
    (("lamb", "rde", "--atom", "H", "--transition", "1s2s"), "alpha = nan\n"),
    (("qed", "run", "--qmax", "nan"), None),
    (("qcd", "run", "--flavor", "u", "--qmin", "nan"), None),
    (("qed", "run", "--qmax", "inf"), None),
])
def test_non_finite_input_is_rejected(argv, config, tmp_path):
    # nan passes every `x <= 0` guard: these printed nan with exit 0, hung
    # in the ODE solver or ended in an OverflowError traceback
    if config is not None:
        path = tmp_path / "constants.txt"
        path.write_text(config)
        argv = (*argv, "--config", str(path))
    proc = subprocess.run([*CLI, *argv], capture_output=True, text=True,
                          timeout=10)
    assert proc.returncode in (2, 64), proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.strip()
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("mass", ["inf", "nan"])
@pytest.mark.parametrize("argv", [
    ("qed", "run", "--qmax", "91.188", "--steps", "2"),
    ("qed", "fit", "--target", "128.89"),
])
def test_table_with_non_finite_mass_is_rejected(mass, argv, tmp_path):
    # an infinite electron mass took the electron out of the running: exit
    # 0 with 1/alpha(M_Z) = 130.55; nan blamed loop_integral instead
    text = table_text(default_particle_table())
    path = tmp_path / "particles.txt"
    path.write_text(text.replace("mass_gev = 0.00051099895",
                                 f"mass_gev = {mass}"))
    proc = run_cli(*argv, "--table", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.strip() == (f"error: {path}:2: bad mass '{mass}' "
                                   "for 'e'")


# one above the documented sample maximum, constants.MAX_SAMPLES
_TOO_MANY = str(100_001)


@pytest.mark.parametrize("argv,config,code", [
    # finite inputs that overflow inside a kernel printed nan or inf, exit 0
    (("regulator", "value", "--family", "quartic", "--msq", "1e200"), None, 3),
    (("effpot", "value", "--sigma", "1e-300", "--lambda", "1e300", "--phi",
      "1"), None, 3),
    (("lamb", "2s2p", "--vp", "1e308", "--nuclear", "1e308"), None, 3),
    (("qcd", "threshold", "--lambda", "1e300", "--alphamax", "1e300"), None,
     3),
    (("lamb", "vp"), "electron_mass = 1e308\n", 3),
    # these ended in "internal error: ZeroDivisionError/OverflowError"
    (("regulator", "oracle", "--family", "log", "--msq", "1e-300"), None, 2),
    (("regulator", "oracle", "--family", "log", "--msq", "1e300"), None, 2),
    (("effpot", "table", "--sigma", "1e200", "--lambda", "1"), None, 3),
    # sample counts had no bound and ran until memory gave out
    (("qed", "run", "--qmax", "10", "--steps", _TOO_MANY), None, 2),
    (("qcd", "run", "--flavor", "b", "--qmin", "50", "--steps", _TOO_MANY),
     None, 2),
    (("effpot", "scan", "--sigma", "1", "--lambda", "1", "--phimax", "3",
      "--n", _TOO_MANY), None, 2),
    (("selfenergy", "zeta", "--Z", "1", "--n", *["1"] * int(_TOO_MANY)),
     None, 2),
    # the ssb constant c3 overflows for a small lambda; this exited with
    # "integration constants must be finite" or a generic float-range line
    (("effpot", "table", "--sigma", "1", "--lambda", "1e-307"), None, 2),
    (("effpot", "scan", "--sigma", "1", "--lambda", "1e-307", "--phimax",
      "3", "--n", "4"), None, 2),
    # too many steps for the range: "curve Q values must be strictly
    # increasing" named nothing that was typed
    (("qed", "run", "--qmax", "1.000000000000001e-6", "--steps", "50"), None,
     2),
    (("qcd", "run", "--flavor", "u", "--qmin", "91.18759999999999",
      "--steps", "50"), None, 2),
    # Z > n with Z^2 beyond the float range: the int division overflowed
    (("selfenergy", "zeta", "--Z", str(10 ** 200), "--n", "1"), None, 2),
    # m^2 underflows to 0: "p^2 must be positive" named no given input
    (("selfenergy", "onshell", "--m", "1e-300"), None, 2),
])
def test_out_of_range_is_one_line_error(argv, config, code, tmp_path,
                                        capsys):
    if config is not None:
        path = tmp_path / "constants.txt"
        path.write_text(config)
        argv = (*argv, "--config", str(path))
    for fmt in ("table", "csv", "json"):
        assert cli.main([*argv, "--format", fmt]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1, err
        assert "internal error" not in err


def test_too_many_steps_names_steps_and_range(capsys):
    assert cli.main(["qed", "run", "--qmax", "1.000000000000001e-6",
                     "--steps", "50"]) == 2
    err = capsys.readouterr().err
    assert "steps = 50" in err and "1.000000000000001e-06" in err


@pytest.mark.parametrize("argv,message", [
    (("selfenergy", "zeta", "--Z", str(10 ** 200), "--n", "1"),
     "error: Z^2/n^2 must lie in (0, 1]"),
    (("selfenergy", "zeta", "--Z", "3", "--n", "2"),
     "error: Z^2/n^2 must lie in (0, 1]"),
    (("selfenergy", "onshell", "--m", "1e-300"),
     "error: m = 1e-300 is so small that p^2 = m^2 underflows to 0"),
])
def test_selfenergy_range_messages(argv, message, capsys):
    assert cli.main(list(argv)) == 2
    assert capsys.readouterr().err.strip() == message


_FLOAT_RANGE = "put the potential outside the float range"
_G = DEFAULT_CONSTANTS.g_factor
_MU_INF = ("m_e = 1e+300 and m_n = 1e+300 MeV put the reduced mass "
           "m_e m_n / (m_e + m_n) outside the float range")
_MU_SUBNORMAL = ("m_e = 1e-160 and m_n = 1e-160 MeV put the reduced mass "
                 "m_e m_n / (m_e + m_n) outside the float range")


@pytest.mark.parametrize("argv,config,message", [
    # each ended in "an input is outside the float range (OverflowError)"
    # or "(ZeroDivisionError)", which named no input
    (("effpot", "value", "--sigma", "1", "--lambda", "1", "--phi", "1e100"),
     None, f"phi = 1e+100, sigma = 1.0 and lambda = 1.0 {_FLOAT_RANGE}"),
    (("effpot", "derivs", "--sigma", "1", "--lambda", "1", "--phi", "1e80"),
     None, f"phi = 1e+80, sigma = 1.0 and lambda = 1.0 {_FLOAT_RANGE}"),
    (("effpot", "scan", "--sigma", "1", "--lambda", "1", "--phimax", "1e100",
      "--n", "3"),
     None, f"phi = 5e+99, sigma = 1.0 and lambda = 1.0 {_FLOAT_RANGE}"),
    (("effpot", "table", "--sigma", "1e200", "--lambda", "1"),
     None, f"sigma = 1e+200 and lambda = 1.0 {_FLOAT_RANGE}"),
    (("effpot", "table", "--sigma", "1e-300", "--lambda", "1e300"),
     None, f"phi = 0.0, sigma = 1e-300 and lambda = 1e+300 {_FLOAT_RANGE}"),
    # zeta_v = 2 alpha^2 Z^2/n^2 underflows
    (("selfenergy", "zeta", "--Z", "1", "--n", "1"), "alpha = 1e-300\n",
     "alpha = 1e-300 and Z^2/n^2 = 1.0 put the zeta schemes outside the "
     "float range"),
    # mu^3 underflows to 0 in radiative_coefficients
    (("lamb", "2s2p"), "electron_mass = 1e-300\n",
     f"mu = 1e-300 MeV and g = {_G!r} put the radiative coefficients "
     "outside the float range"),
    (("lamb", "2s2p", "--b2r", "formula"), "electron_mass = 1e-300\n",
     f"mu = 1e-300 MeV and g = {_G!r} put the radiative coefficients "
     "outside the float range"),
    # mu_obs^4 overflows in p4_level_shift
    (("lamb", "2s2p"), "electron_mass = 1e100\nproton_mass = 1e100\n",
     "Z = 1, mu_obs = 5e+99 MeV and b2r = 3.7129435406632003e-302 put the "
     "p^4 level shift outside the float range"),
    # m_e m_n overflows to inf in reduced_mass
    (("lamb", "2s2p"), "electron_mass = 1e300\nproton_mass = 1e300\n",
     _MU_INF),
    (("lamb", "vp", "--mass", "reduced"),
     "electron_mass = 1e300\nproton_mass = 1e300\n", _MU_INF),
    (("lamb", "rde", "--atom", "H", "--transition", "1s2s"),
     "electron_mass = 1e300\nproton_mass = 1e300\n", _MU_INF),
    # the quartic bracket overflows though phi^4 does not: these ended in
    # "re_v = inf is not finite" and "v = (inf+nanj) is not finite"
    (("effpot", "value", "--sigma", "1", "--lambda", "1", "--phi", "1e77"),
     None, f"phi = 1e+77, sigma = 1.0 and lambda = 1.0 {_FLOAT_RANGE}"),
    (("effpot", "derivs", "--sigma", "1", "--lambda", "1", "--phi", "1e77"),
     None, f"phi = 1e+77, sigma = 1.0 and lambda = 1.0 {_FLOAT_RANGE}"),
    # M^4 overflows; this ended in "value = (nan+nanj) is not finite"
    (("regulator", "value", "--family", "quartic", "--msq", "1e200"), None,
     "M^2 = 1e+200, c1 = 0.0, c2 = 0.0 and c3 = 0.0 put the quartic "
     "integral outside the float range"),
    # m_e m_n is subnormal: these printed digits of 4.999944335913415e-161
    # with exit 0
    (("lamb", "vp", "--mass", "reduced"),
     "electron_mass = 1e-160\nproton_mass = 1e-160\n", _MU_SUBNORMAL),
    (("lamb", "rde", "--atom", "H", "--transition", "1s2s"),
     "electron_mass = 1e-160\nproton_mass = 1e-160\n", _MU_SUBNORMAL),
    # k = pi alpha Z^2/n^2 (1 + alpha/3 pi) underflows before W is taken
    (("selfenergy", "zeta", "--Z", "1", "--n", "1"), "alpha = 1e-320\n",
     "alpha = 1e-320 and Z^2/n^2 = 1.0 put the zeta schemes outside the "
     "float range"),
    # kl lam^3 phi^4 overflows before g3 = -1/M^4 scales it back; this
    # ended in "d4 = (-inf+0j) is not finite"
    (("effpot", "derivs", "--sigma", "4e-262", "--lambda", "1e74", "--phi",
      "5e12"),
     None, f"phi = 5000000000000.0, sigma = 4e-262 and lambda = 1e+74 "
     f"{_FLOAT_RANGE}"),
    # -alpha^5 m/(30 pi) in Hz: this ended in "shift_mhz = -inf is not
    # finite", and this printed the subnormal -1.43e-308 with exit 0
    (("lamb", "vp", "--mass", "electron"), "electron_mass = 1e308\n",
     f"m = 1e+308 MeV and alpha = {DEFAULT_CONSTANTS.alpha!r} put the "
     "Uehling 2S shift outside the float range"),
    (("lamb", "vp", "--mass", "electron"),
     "electron_mass = 2.4e-305\nalpha = 7.5e-4\n",
     "m = 2.4e-305 MeV and alpha = 0.00075 put the Uehling 2S shift "
     "outside the float range"),
])
def test_float_range_failure_names_its_input(argv, config, message, tmp_path,
                                             capsys):
    if config is not None:
        path = tmp_path / "constants.txt"
        path.write_text(config)
        argv = (*argv, "--config", str(path))
    for fmt in ("table", "csv", "json"):
        assert cli.main([*argv, "--format", fmt]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"numerical failure: {message}\n"


# ------------------------------------------------------------- json render

def _json_dumps(data):
    # the reference: json's own indent-2 encoder, complex as the CLI writes it
    return json.dumps(data, indent=2, default=lambda z: {
        "re": z.real, "im": z.imag}) + "\n"


def test_big_scan_json_is_json_dumps_of_the_library_rows(capsys):
    n, phimax = 20000, 3.0
    assert cli.main(["effpot", "scan", "--sigma", "1", "--lambda", "0.5",
                     "--phimax", repr(phimax), "--n", str(n),
                     "--format", "json"]) == 0
    p = PotentialParams(sigma=1.0, lam=0.5)
    c = ssb_scheme(p)
    rows = []
    for i in range(n):
        phi = i * (phimax / (n - 1))
        v = one_loop_potential(phi, p, c)
        rows.append({"phi": phi, "re_v": v.real, "im_v": v.imag})
    assert cli._json_records(rows) is not None   # the template path ran
    assert capsys.readouterr().out == _json_dumps(rows)


_KEYS = st.text(max_size=5) | st.sampled_from(
    ["phi", "re_v", 'a"b', "a\\b", "100%", "%r", "\u00e9\u03c6", "\u2028"])
_NUMBERS = (st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 5e-324, 1e16, 1e308, -1e308])
            | st.integers(min_value=-2 ** 70, max_value=2 ** 70)
            | st.just(2 ** 63 + 1))
_OTHERS = (st.booleans() | st.none() | st.text(max_size=3)
           | st.complex_numbers(allow_nan=False, allow_infinity=False))


@st.composite
def _record_lists(draw):
    """Lists of records over a few key tuples, so templates are reused;
    half of them also hold values the template path must leave to json."""
    key_tuples = draw(st.lists(st.lists(_KEYS, unique=True, max_size=4),
                               min_size=1, max_size=3))
    values = _NUMBERS if draw(st.booleans()) else _NUMBERS | _OTHERS
    records = []
    for keys in draw(st.lists(st.sampled_from(key_tuples), max_size=6)):
        records.append({k: draw(values) for k in keys})
    return records


@st.composite
def _headed_record_lists(draw):
    """A header record whose last value is a record list, as qcd run
    prints; some headers hold values or keys the template path must leave
    to json."""
    header = draw(st.dictionaries(
        _KEYS, st.none() | st.text(max_size=3) | _NUMBERS, max_size=3))
    if draw(st.booleans()):
        header.update(draw(st.dictionaries(
            _KEYS | st.integers(0, 3), _OTHERS | st.just({"a": 1.0}),
            max_size=2)))
    header[draw(_KEYS)] = draw(_record_lists())
    return header


@given(_record_lists() | _headed_record_lists())
@example({"flavor": "b", "lambda_peak": None, "alpha_max": None,
          "samples": [{"q_gev": 50.0, "alpha_s": 0.129},
                      {"q_gev": 91.1876, "alpha_s": 0.118}]})
@example({"samples": [{"q_gev": 1.0}]})
@example({"n": 2, "x": -0.0, "samples": [{"q": 1e308}, {"q": 5e-324}]})
@example({"flag": True, "samples": [{"q": 1.0}]})
@example({"peak": 1 + 2j, "samples": [{"q": 1.0}]})
@example({1: 1.0, "samples": [{"q": 1.0}]})
@example({"inner": {"a": 1.0}, "samples": [{"q": 1.0}]})
@example({"samples": [{"q": 1.0}], "n": 1})
@example({"samples": []})
@example({"samples": [{"q": None}]})
@example({"a\u2028%r": "\u00e9\"", "samples": [{"q": 1.0}]})
@example([])
@example([{}])
@example([{"phi": -0.0, "re_v": 5e-324, "im_v": 1e16},
          {"phi": 1e308, "re_v": 2 ** 64, "im_v": 0}])
@example([{"100%": 1.0, "%r": 2, 'a"\\b': 3.5, "\u00e9": 4.0}])
@example([{1: 1.0, 2.5: 2, None: 3.0}])
@example([{"x": True}])
@example([{"x": 1.0}, {"x": None}])
@example([{"x": 1.0, "y": "text"}])
@example([{"x": 1.0}, {"x": 1 + 2j}])
@example([{"x": 1.0}, {}])
def test_json_render_is_json_dumps(records):
    assert cli._emit("json", records) == _json_dumps(records)


def test_qcd_run_json_is_written_by_the_template_path(capsys):
    assert cli.main(["qcd", "run", "--flavor", "c", "--qmin", "2",
                     "--steps", "300", "--format", "json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert cli._json_records(doc) == out == _json_dumps(doc)


# ------------------------------------------------------- float flag sweep

_SWEEP_VALUES = ("0", "-1", "5e-324", "1e-308", "1e308", "-1e308")


def _sweep_argvs(path, parser):
    """Each float flag of a leaf set in turn to each sweep value, on the
    leaf's first exit-0 json golden case."""
    base = next(case["argv"] for case in INDEX.values()
                if case["exit"] == 0 and tuple(case["argv"][:2]) == path
                and case["argv"][-1] == "json")
    for action in parser._actions:
        if action.type is not cli._finite:
            continue
        flag = action.option_strings[0]
        kept, dropping = [], False
        for token in base:
            dropping = token == flag or (dropping
                                         and not token.startswith("--"))
            if not dropping:
                kept.append(token)
        # "--x=-1e308": argparse reads a bare "-1e308" as an option
        yield from ([*kept, f"{flag}={value}"] for value in _SWEEP_VALUES)


def _numbers(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in _numbers(item)]
    return [doc] if isinstance(doc, (int, float)) else []


_LEAVES = dict(_leaves(cli.build_parser()))


@pytest.mark.parametrize("path", sorted(_LEAVES),
                         ids=lambda path: " ".join(path))
def test_float_flag_extremes_exit_cleanly(path, capsys):
    # an exception escaping main fails the test by itself
    bad = []
    for argv in _sweep_argvs(path, _LEAVES[path]):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        if code == 0:
            if not all(map(math.isfinite, _numbers(json.loads(out)))):
                bad.append((argv, out))
        elif code not in (2, 3, 64) or out or "internal error" in err:
            bad.append((argv, code, err))
    assert not bad, bad
