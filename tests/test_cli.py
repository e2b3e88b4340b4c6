import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CLI, cli_csv, cli_json, run_cli, table_text
from test_golden import INDEX, _leaves

from rrm_lab import cli
from rrm_lab.constants import DEFAULT_CONSTANTS, default_particle_table


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
    "qcd": {"qcd", "qed"},
    "effpot": {"potential", "regulator"},
    "lamb": {"lamb"},
    "constants": set(),
    "fixtures": {"fixtures"},
}


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


@pytest.mark.parametrize(
    "family", sorted({path[0] for path, _ in _leaves(cli.build_parser())})
)
def test_command_loads_only_its_family(family):
    argv = next(case["argv"] for _, case in sorted(INDEX.items())
                if case["argv"][0] == family and case["exit"] == 0)
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
    own = {"cli", "constants", "errors"} | FAMILY_MODULES[family]
    assert loaded == sorted(f"rrm_lab.{m}" for m in own)
    assert data_reader == []


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
