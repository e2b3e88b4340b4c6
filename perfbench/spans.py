"""In-memory span recorder used by the traced CLI child and the library worker.

A span is ``[name, start, end, parent, op]`` with times from
``time.monotonic()`` (CLOCK_MONOTONIC, shared by every process on the box),
``parent`` the index of the enclosing span or -1, and ``op`` the op id.
Spans are recorded around calls into the program's public entry points by
swapping module attributes; nothing inside the program is edited.

This module imports only ``sys``, ``time`` and ``builtins`` so that loading it
in a cold child adds no module that the program itself might load.
"""

import builtins
import sys
import time

# layer name for each module-level function the CLI handlers and the
# library tasks call; keyed by defining module
KERNELS = {
    "rrm_lab.qed": {
        "evolve_alpha": "qed.evolve_alpha",
        "fit_light_quarks": "qed.fit_light_quarks",
    },
    "rrm_lab.qcd": {
        "evolve_alpha_s_massive": "qcd.evolve_alpha_s_massive",
        "lambda_qcd": "qcd.eval",
        "alpha_s_lambda": "qcd.eval",
        "alpha_s_mu": "qcd.eval",
        "make_scheme": "qcd.eval",
        "hadronization_threshold": "qcd.eval",
    },
    "rrm_lab.self_energy": {
        "zeta_row": "self_energy.zeta",
        "zeta_table": "self_energy.zeta",
        "fix_on_shell": "self_energy.eval",
        "mass_increment": "self_energy.eval",
        "sigma_coefficients": "self_energy.eval",
    },
    "rrm_lab.regulator": {
        "log_derivative_oracle": "regulator.oracle",
        "quartic_third_derivative_oracle": "regulator.oracle",
        "log_derivative_closed_form": "regulator.eval",
        "quartic_third_derivative_closed_form": "regulator.eval",
        "log_integral_value": "regulator.eval",
        "quartic_integral_value": "regulator.eval",
    },
    "rrm_lab.potential": {
        "scheme_for": "potential.eval",
        "two_phase_table": "potential.eval",
        "sector_report": "potential.eval",
        "one_loop_potential": "potential.eval",
        "potential_derivative": "potential.eval",
    },
    "rrm_lab.lamb": {
        "reduced_mass": "lamb.eval",
        "radiative_coefficients": "lamb.eval",
        "lamb_2s_2p": "lamb.eval",
        "rde_transition_1s2s": "lamb.eval",
        "uehling_2s_shift": "lamb.eval",
    },
    "rrm_lab.constants": {
        "load_config": "constants.load",
        "default_particle_table": "constants.load",
        "load_particle_table_file": "constants.load",
    },
    "rrm_lab.fixtures": {
        "load_fixtures": "fixtures.load",
        "show": "fixtures.load",
    },
}

# the ODE right-hand side looks this up on every call, so wrapping the
# module attribute counts every evaluation without touching the solver
COUNTED = {"rrm_lab.qed": ("beta_total", "qed.beta_total_calls")}

HEAVY_IMPORTS = ("numpy", "scipy")


class Recorder:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = 0
        self._stack = []
        self._saved = []
        self._importing = set()

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.monotonic(), None, parent, self.op]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.monotonic()

    def wrap(self, fn, name):
        rec = self

        def traced(*args, **kwargs):
            out = rec.call(name, fn, *args, **kwargs)
            _count_result(rec, name, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def counter(self, fn, name):
        rec = self

        def counted(*args, **kwargs):
            rec.counts[name] = rec.counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def trace_heavy_imports(self):
        """Span the first import of numpy and scipy, wherever it happens.

        Returns a function that puts the plain ``__import__`` back.
        """
        real = builtins.__import__
        rec = self

        def traced_import(name, globals=None, locals=None, fromlist=(),
                          level=0):
            top = name.partition(".")[0]
            if (level == 0 and top in HEAVY_IMPORTS
                    and top not in rec._importing
                    and name not in sys.modules):
                rec._importing.add(top)
                try:
                    return rec.call("import." + top, real, name, globals,
                                    locals, fromlist, level)
                finally:
                    rec._importing.discard(top)
            return real(name, globals, locals, fromlist, level)
        builtins.__import__ = traced_import
        return lambda: setattr(builtins, "__import__", real)

    def install(self, extra_namespaces=()):
        """Wrap every kernel in its module and in each extra namespace.

        Only the defining module and the given namespaces (the package, the
        CLI) are patched, so a kernel's internal calls into other modules
        stay unwrapped and the span count stays proportional to the calls
        the entry point makes.
        """
        for modname, table in KERNELS.items():
            module = sys.modules.get(modname)
            if module is None:
                continue
            for attr, name in table.items():
                fn = getattr(module, attr)
                traced = self.wrap(fn, name)
                for ns in (module, *extra_namespaces):
                    if getattr(ns, attr, None) is fn:
                        self._saved.append((ns, attr, fn))
                        setattr(ns, attr, traced)
        for modname, (attr, name) in COUNTED.items():
            module = sys.modules.get(modname)
            if module is None:
                continue
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self.counter(fn, name))

    def uninstall(self):
        for ns, attr, fn in reversed(self._saved):
            setattr(ns, attr, fn)
        self._saved = []


def _count_result(rec, name, out):
    if name == "qed.fit_light_quarks":
        rec.count("qed.fit_evaluations", out.iterations)
    elif name == "qed.evolve_alpha":
        rec.count("qed.curve_samples", len(out.samples))
    elif name == "qcd.evolve_alpha_s_massive":
        rec.count("qcd.curve_samples", len(out.curve.samples))


def self_times(spans):
    """Total self time in seconds per span name, and the top-level total.

    A span's self time is its duration minus the durations of its direct
    children; the top-level total sums spans that have no parent.
    """
    own = {}
    child = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent, _ in spans:
        duration = end - start
        if parent >= 0:
            child[parent] += duration
        else:
            top += duration
    for i, (name, start, end, _, _) in enumerate(spans):
        own[name] = own.get(name, 0.0) + (end - start) - child[i]
    return own, top
