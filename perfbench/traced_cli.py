"""Run the kohnspec CLI in-process with a span around each layer boundary.

Usage, from the repository root with ``src`` on ``PYTHONPATH``:

    python3 perfbench/traced_cli.py TRACE_OUT CLI_ARGS...

Each function in ``SPANNED`` is replaced under the name its calling module
binds it to, so every call through that binding records one span: name,
start, end and the index of the enclosing span.  The inertia routine that
bisection calls once per probe is counted instead of spanned, because a
span per probe would cost more than the probe.  No file of the program is
changed.  When the CLI returns, the spans and counters are written to
TRACE_OUT as JSON and the CLI's exit code becomes this process's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import warnings

# (module that makes the call, attribute it calls through, span name)
SPANNED = (
    ("kohnspec.cli", "main", "cli.main"),
    ("kohnspec.curve", "curve_from_spec", "curve.curve_from_spec"),
    ("kohnspec.cli", "lambda1_kohn", "spectrum.lambda1_kohn"),
    ("kohnspec.cli", "emit_report", "spectrum.emit_report"),
    ("kohnspec.cli", "verify_E_geq_1", "whittakerhill.verify_E_geq_1"),
    ("kohnspec.spectrum", "mode_spectrum", "modes.mode_spectrum"),
    ("kohnspec.spectrum", "geometric_invariants", "curve.geometric_invariants"),
    ("kohnspec.spectrum", "webster_scalar_curvature", "curve.webster_scalar_curvature"),
    ("kohnspec.curve", "webster_scalar_curvature", "curve.webster_scalar_curvature"),
    ("kohnspec.modes", "assemble_bands", "modes.assemble_bands"),
    ("kohnspec.modes", "eig_periodic_sym_tridiagonal", "eigen.eig_periodic_sym_tridiagonal"),
    ("kohnspec.whittakerhill", "ince_matrix", "whittakerhill.ince_matrix"),
    ("kohnspec.whittakerhill", "eig_general_tridiagonal", "eigen.eig_general_tridiagonal"),
    ("kohnspec.whittakerhill", "sector_exclusion_certificate", "eigen.sector_exclusion_certificate"),
    ("kohnspec.whittakerhill", "point_in_sector", "eigen.point_in_sector"),
)

#: Counters that add up the length of a spanned function's return value.
LENGTH_COUNTERS = {
    "eigen.eig_periodic_sym_tridiagonal": "eigenvalues_bisected",
    "spectrum.emit_report": "report_bytes",
}

#: The inertia count that bisection evaluates once per probe.
PROBE_MODULE, PROBE_ROUTINE = "kohnspec.eigen", "_periodic_inertia"


class Tracer:
    """In-memory span list plus named counters for one traced CLI run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counters = {"runtime_warnings": 0}
        self.missing = []
        self._open = []
        self._show_warning = warnings.showwarning

    def span(self, name, fn, length_counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._open[-1] if self._open else None]
            self.spans.append(record)
            self._open.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if length_counter is not None:
                self.counters[length_counter] = self.counters.get(length_counter, 0) + len(result)
            return result
        return traced

    def count(self, counter, fn):
        self.counters[counter] = 0

        @functools.wraps(fn)
        def counted(*args):
            self.counters[counter] += 1
            return fn(*args)
        return counted

    def install(self):
        """Replace every binding in SPANNED; note the ones that no longer exist."""
        for module_name, attr, name in SPANNED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.span(name, fn, LENGTH_COUNTERS.get(name)))
        module = importlib.import_module(PROBE_MODULE)
        routine = getattr(module, PROBE_ROUTINE, None)
        # A compiled routine is called from compiled code, out of reach of
        # a Python wrapper: leave the probe counter absent rather than zero.
        if inspect.isfunction(routine):
            setattr(module, PROBE_ROUTINE, self.count("probes", routine))
        else:
            self.missing.append(f"{PROBE_MODULE}.{PROBE_ROUTINE} (absent or compiled)")

    def count_warning(self, message, category, filename, lineno, file=None, line=None):
        if issubclass(category, RuntimeWarning):
            self.counters["runtime_warnings"] += 1
        else:
            self._show_warning(message, category, filename, lineno, file, line)


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: traced_cli.py TRACE_OUT CLI_ARGS...", file=sys.stderr)
        return 1
    trace_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    warnings.simplefilter("always", RuntimeWarning)
    warnings.showwarning = tracer.count_warning
    cli = importlib.import_module("kohnspec.cli")
    code = cli.main(cli_args)
    with open(trace_out, "w") as handle:
        json.dump({"exit_code": code, "spans": tracer.spans,
                   "counters": tracer.counters, "missing": tracer.missing}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
