"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They run the CLI in-process (``rrm_lab.cli.main``) so they take seconds, not
the minute a cold-process run would.
"""

import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import check  # noqa: E402
import libworker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

import rrm_lab  # noqa: E402
from rrm_lab import cli  # noqa: E402


def run_in_process(o, config_path=None):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(workloads.argv(o, config_path))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def checked(o, tmp_path, code=None, stdout=None, stderr=None):
    config = None
    if o["config"] is not None:
        config = tmp_path / "cfg.txt"
        config.write_text(o["config"], encoding="utf-8")
        config = str(config)
    real = run_in_process(o, config)
    code = real[0] if code is None else code
    stdout = real[1] if stdout is None else stdout
    stderr = real[2] if stderr is None else stderr
    return check.check_cli(o, code, stdout, stderr, rrm_lab, config)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_deterministic(name):
    gen = workloads.GENERATORS[name]
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)


def test_closed_form_mix_is_one_invalid_in_ten():
    ops = workloads.cli_closed_form(3)
    invalid = sum(o["expect"] is not None for o in ops)
    assert 0.08 <= invalid / len(ops) <= 0.12


@pytest.mark.parametrize("name,count", [("cli_closed_form", 25),
                                        ("cli_solver_bulk", 12)])
def test_checker_accepts_real_output(name, count, tmp_path):
    for o in workloads.GENERATORS[name](5)[:count]:
        assert checked(o, tmp_path) is None, workloads.argv(o)


def test_checker_accepts_every_format_of_every_table():
    for cmd, args in workloads._closed_form_kinds(random.Random(1)):
        for fmt in workloads.FORMATS:
            o = workloads.op(cmd, args, fmt)
            code, out, err = run_in_process(o)
            assert check.check_cli(o, code, out, err, rrm_lab) is None, \
                (cmd, fmt, out)


def _flip_digit(text, nth):
    digits = [i for i, ch in enumerate(text) if ch.isdigit()]
    i = digits[nth]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_checker_rejects_a_flipped_digit(fmt, tmp_path):
    o = workloads.op("selfenergy onshell", {}, fmt)
    code, out, err = run_in_process(o)
    assert check.check_cli(o, code, out, err, rrm_lab) is None
    # the 5th digit of the output sits inside the first value in every format
    bad = _flip_digit(out, 4)
    assert check.check_cli(o, code, bad, err, rrm_lab) is not None


def test_checker_rejects_a_flipped_pinned_digit():
    o = workloads._solver_anchors()[0]          # qed run to M_Z, json
    code, out, err = run_in_process(o)
    assert check.check_cli(o, code, out, err, rrm_lab) is None
    last = out.rindex("128.16")
    bad = out[:last] + _flip_digit(out[last:], 6)
    assert check.check_cli(o, code, bad, err, rrm_lab) is not None


def test_checker_rejects_nan_with_exit_zero():
    o = workloads.op("qcd lambda", {"--alpha": 0.118, "--nf": 5})
    assert check.check_cli(o, 0, "nan GeV\n", "", rrm_lab) is not None
    o = workloads.op("selfenergy onshell", {"--m": "nan"}, "json")
    code, out, err = run_in_process(o)
    assert check.check_probe(code, out, err, False) is not None


def test_checker_rejects_a_wrong_exit_code(tmp_path):
    o = workloads.op("qcd lambda", {"--alpha": 0.118, "--nf": 5})
    assert checked(o, tmp_path, code=2) is not None
    bad = workloads.op("qcd lambda", {"--alpha": 1.5, "--nf": 5}, expect=2)
    assert checked(bad, tmp_path) is None
    assert checked(bad, tmp_path, code=0, stdout="0.1 GeV\n") is not None
    assert checked(bad, tmp_path, code=3) is not None


def test_probe_accepts_documented_rejection():
    assert check.check_probe(2, "", "error: x must be finite\n", False) is None
    assert check.check_probe(64, "", "usage: ...\n", False) is None
    assert check.check_probe(1, "", "Traceback (most recent call last)",
                             False) is not None
    assert check.check_probe(-9, "", "", True) == "timed out"


class _FakeChild:
    def __init__(self, i):
        self.i, self.code, self.out, self.err = i, 0, "", ""
        self.wall = self.cpu = 0.01
        self.rss_mb = 80.0
        self.t_spawn, self.t_exit, self.t_reaped = 0.0, 0.008, 0.01
        self.timed_out = False
        self.trace = {"t0": 0.001, "spans": [], "counts": {
            "import.modules_loaded": 0, "import.numpy_loaded": 0,
            "import.scipy_loaded": 0}}


def test_traced_and_untraced_runs_drive_the_same_ops(monkeypatch, tmp_path):
    calls = []

    def fake(kind):
        def call(self, i, *rest, **kw):
            calls.append((kind, i))
            return _FakeChild(i)
        return call
    monkeypatch.setattr(run.CliRun, "untraced", fake("untraced"))
    monkeypatch.setattr(run.CliRun, "traced", fake("traced"))
    monkeypatch.setattr(run.CliRun, "set_up", lambda self: [0.1])
    monkeypatch.setattr(run.CliRun, "probes", lambda self: [])
    monkeypatch.setattr(run.time, "monotonic", iter(range(10 ** 6)).__next__)
    plain = run.CliRun(tmp_path, tmp_path, "cli_closed_form", 11)
    run.run_cli(plain, 10, lambda line: None)
    timed = [i for kind, i in calls]
    calls.clear()
    traced = run.CliRun(tmp_path, tmp_path, "cli_closed_form", 11)
    assert traced.ops == plain.ops
    run.run_cli_traced(traced, 10, lambda line: None)
    # one warm-up, then each op untraced and traced, in the timed order
    assert calls[0] == ("untraced", 0)
    pairs = calls[1:]
    assert [k for k, _ in pairs] == ["untraced", "traced"] * (len(pairs) // 2)
    order = [i for _, i in pairs[::2]]
    assert [i for _, i in pairs[1::2]] == order
    assert order == timed[:len(order)]


def test_lib_worker_runs_each_task_untraced_then_traced(monkeypatch):
    seen = []
    rec = libworker.spans.Recorder()

    def fake_task(rl, o):
        seen.append((o["args"]["atom"], bool(rec._saved)))
        return 2.466068598667e15
    monkeypatch.setattr(libworker, "run_task", fake_task)
    ops = [workloads.op("rde_transition_1s2s", {"atom": a}) for a in "HD"]
    rows, _, failures, _ = libworker._timed(rrm_lab, ops, 0.01, rec)
    assert failures == {}
    assert seen[:4] == [("H", False), ("H", True), ("D", False), ("D", True)]
    assert len(rows) == len(seen) // 2
