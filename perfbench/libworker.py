"""One library process for ``lib_batch``.

    python libworker.py SEED SECONDS MODE

MODE is ``setup`` (import and warm pass only), ``timed`` or ``traced``. The
set-up is ``import rrm_lab`` plus one warm call of each task kind. The timed
loop then runs the seeded task list round and round through public
functions, one task at a time, until SECONDS have passed. In ``traced`` mode
each task runs twice, untraced and then with spans, so both walls come from
the same list. The result is one JSON line on stdout, then a line holding the
monotonic time just before exit.
"""

import time

T0 = time.monotonic()

import sys  # noqa: E402

import spans  # noqa: E402


def run_task(rl, o):
    a, kind = o["args"], o["cmd"]
    if kind == "evolve_alpha":
        return rl.evolve_alpha(a["qmax"], rl.BetaModel(
            rl.default_particle_table()), steps=a["steps"])
    if kind == "evolve_alpha_s_massive":
        model = rl.MassiveQcdModel(rl.default_particle_table(), a["anchor"],
                                   a["flavor"])
        return rl.evolve_alpha_s_massive(model, a["qmin"])
    if kind == "fit_light_quarks":
        return rl.fit_light_quarks(rl.BetaModel(rl.default_particle_table()),
                                   a["target"])
    if kind == "zeta_table":
        return rl.zeta_table(a["ratios"])
    if kind == "log_derivative_oracle":
        return (rl.log_derivative_oracle(a["msq"]),
                rl.log_derivative_closed_form(a["msq"]))
    if kind == "quartic_third_derivative_oracle":
        return (rl.quartic_third_derivative_oracle(a["msq"]),
                rl.quartic_third_derivative_closed_form(a["msq"]))
    p = c = None
    if kind in ("sector_report", "two_phase_table"):
        p = rl.PotentialParams(a["sigma"], a["lam"])
        c = rl.scheme_for(a["sector"], p)
    if kind == "sector_report":
        return [rl.sector_report(phi, p, c) for phi in a["phis"]]
    if kind == "two_phase_table":
        return rl.two_phase_table(p, c)
    if kind == "lamb_2s_2p":
        k = rl.DEFAULT_CONSTANTS
        mu = rl.reduced_mass(k.electron_mass, k.proton_mass)
        co = rl.radiative_coefficients(mu, k.g_factor, a["mode"])
        return rl.lamb_2s_2p(mu_obs=mu, b2r=co.b2r,
                             convention=a["convention"])
    if kind == "rde_transition_1s2s":
        return rl.rde_transition_1s2s(a["atom"])
    raise KeyError(kind)


def _import(rec):
    """``import rrm_lab``, before the worker loads any module of its own.

    The benchmark's modules load afterwards, so the module count is the
    program's alone.
    """
    modules_before = len(sys.modules)
    start = time.perf_counter()
    if rec is not None:
        untrace = rec.trace_heavy_imports()
        rl = rec.call("import.rrm_lab", __import__, "rrm_lab")
        untrace()
    else:
        import rrm_lab as rl
    return rl, time.perf_counter() - start, len(sys.modules) - modules_before


def _warm(rl, ops):
    """One call of each task kind; returns its wall time."""
    first = {}
    for o in ops:
        first.setdefault(o["cmd"], o)
    start = time.perf_counter()
    for o in first.values():
        run_task(rl, o)
    return time.perf_counter() - start


def _timed(rl, ops, seconds, rec):
    """Run until the deadline; returns per-op rows and per-op checks."""
    import check
    rows, values, failures = [], {}, {}
    modules_before = len(sys.modules)
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline:
        index = i % len(ops)
        o = ops[index]
        row = []
        for traced in ((False, True) if rec is not None else (False,)):
            if traced:
                rec.op = i
                rec.install((rl,))
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = run_task(rl, o)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), time.process_time()
            if traced:
                rec.uninstall()
            row += [t1 - t0, c1 - c0]
            if error is None:
                got = check.lib_values(o["cmd"], result)
                if values.setdefault(index, got) != got:
                    error = "result differs from the same task's first run"
            if error is not None:
                failures.setdefault(index, error)
        rows.append([index] + row)
        i += 1
    elapsed = time.perf_counter() - start
    for index, got in values.items():
        if index not in failures:
            reason = check.check_lib(ops[index], got)
            if reason is not None:
                failures[index] = reason
    return rows, elapsed, failures, len(sys.modules) - modules_before


def main():
    seed, seconds, mode = int(sys.argv[1]), float(sys.argv[2]), sys.argv[3]
    rec = spans.Recorder() if mode == "traced" else None
    rl, import_s, modules = _import(rec)
    import json
    import workloads
    ops = workloads.lib_batch(seed)
    out = {"t0": T0, "setup_s": import_s + _warm(rl, ops),
           "modules_loaded": modules,
           "numpy_loaded": int("numpy" in sys.modules),
           "scipy_loaded": int("scipy" in sys.modules)}
    if mode != "setup":
        if rec is not None:
            import_spans, rec.spans = rec.spans, []
        rows, elapsed, failures, new_modules = _timed(rl, ops, seconds, rec)
        out.update(rows=rows, elapsed=elapsed, new_modules=new_modules,
                   failures={str(k): v for k, v in failures.items()},
                   kinds=[o["cmd"] for o in ops])
        if rec is not None:
            out.update(import_spans=import_spans, spans=rec.spans,
                       counts=rec.counts)
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    sys.stdout.write(repr(time.monotonic()) + "\n")


if __name__ == "__main__":
    main()
