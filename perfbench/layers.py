"""Layer tracing from outside the package.

The tracer replaces public functions of besselhr's modules with timing
wrappers, at every module attribute that holds the function, so callers
that imported a name (`from .series import j_function` in kernel.py and
cli.py) reach the wrapper too.  A wrapper records only while
`Tracer.recording` is set, which the benchmark sets around timed calls, so
the oracle computations of the checks never count.

Each call becomes a span (name, parent span, start, end).  A layer's self
time is its span time minus the time of the wrapped calls made inside it.
Spans of the _backend layer are aggregated, not stored: there are hundreds
of thousands of them per round.

The big-float counters need series._j_generic_mp, a private function; when
that name is gone its wrapper is skipped and the counters read 0, and the
missing name is reported in the trace file.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

_STORED_SPAN_CAP = 200_000
_UNSTORED = ("backend.",)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.recording = False
        self.stack = []  # frames: [name, start_ns, child_ns, span_id]
        self.calls = Counter()
        self.total_ns = Counter()  # outermost calls only, so recursion is not counted twice
        self.self_ns = Counter()
        self.child_calls = Counter()  # (parent name, name) -> calls
        self.counts = Counter()
        self.max_dps = 0
        self.spans = []
        self.dropped_spans = 0
        self.missing = []
        self._next_id = 0

    def wrap(self, name, fn, on_enter=None, on_exit=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            tracer.calls[name] += 1
            tracer.child_calls[(parent[0] if parent else None, name)] += 1
            state = on_enter(tracer, args, kwargs) if on_enter else None
            tracer._next_id += 1
            frame = [name, time.perf_counter_ns(), 0, tracer._next_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                dur = end - frame[1]
                tracer.self_ns[name] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                if all(f[0] != name for f in stack):
                    tracer.total_ns[name] += dur
                if not name.startswith(_UNSTORED):
                    if len(tracer.spans) < _STORED_SPAN_CAP:
                        tracer.spans.append(
                            (frame[3], parent[3] if parent else 0, name, frame[1], end)
                        )
                    else:
                        tracer.dropped_spans += 1
            if on_exit:
                on_exit(tracer, state, args, kwargs, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, module_name, attr, name, on_enter=None, on_exit=None, optional=False):
        module = sys.modules[module_name]
        fn = getattr(module, attr, None)
        if fn is None:
            if not optional:
                raise AttributeError(f"{module_name}.{attr} is gone")
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = self.wrap(name, fn, on_enter, on_exit)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "besselhr" or mod_name.startswith("besselhr.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)


# ---------------------------------------------------------------------------
# counters at the layer boundaries
# ---------------------------------------------------------------------------

def _series_sum_exit(tr, _state, _args, _kwargs, result):
    tr.counts["backend.series_sum.terms"] += int(result[2])


def _integrand_exit(tr, _state, args, kwargs, _result):
    points = len(_arg(args, kwargs, 0, "s"))
    tr.counts["backend.mb_integrand.points"] += points
    if points == 15:
        tr.counts["mb.panels"] += 1
    elif points == 1:
        tr.counts["mb.tail_probes"] += 1


def _bigfloat_enter(tr, args, kwargs):
    tr.counts["series.bigfloat.rounds"] += 1
    tr.max_dps = max(tr.max_dps, int(_arg(args, kwargs, 3, "dps")))


def _make_j_function_hooks(core, series):
    eps_gen = getattr(series, "EPS_GEN", 1e-4)

    def enter(tr, args, kwargs):
        si = _arg(args, kwargs, 2, "si")
        if core.genericity_gap(si) < eps_gen:
            tr.counts["series.cauchy.calls"] += 1
        return tr.counts["series.bigfloat.rounds"]

    def exit_(tr, rounds_before, _args, _kwargs, _result):
        if tr.counts["series.bigfloat.rounds"] == rounds_before:
            tr.counts["series.double_finished"] += 1

    return enter, exit_


_ROUTES = {"series": "series", "asymptotic": "asymptotic", "mellin-barnes": "mb"}


def _kernel_exit(tr, _state, _args, _kwargs, result):
    tr.counts["kernel.route." + _ROUTES.get(result.method, result.method)] += 1


def install_all(tracer: Tracer):
    """Wrap the public functions of every layer; besselhr must be imported."""
    import besselhr.cli  # noqa: F401  (loads every layer)

    core = sys.modules["besselhr.core"]
    series = sys.modules["besselhr.series"]
    j_enter, j_exit = _make_j_function_hooks(core, series)
    t = tracer
    t.install("besselhr._backend", "series_sum", "backend.series_sum", on_exit=_series_sum_exit)
    t.install("besselhr._backend", "mb_j_integrand", "backend.mb_integrand", on_exit=_integrand_exit)
    t.install("besselhr._backend", "mb_kernel_integrand", "backend.mb_integrand", on_exit=_integrand_exit)
    t.install("besselhr.series", "j_function", "series.j_function", j_enter, j_exit)
    t.install("besselhr.series", "first_kind", "series.first_kind")
    t.install("besselhr.series", "_j_generic_mp", "series.bigfloat", _bigfloat_enter, optional=True)
    t.install("besselhr.asympt", "j_varsigma_asymptotic", "asympt.j_varsigma")
    t.install("besselhr.coeffs", "build_b_table", "coeffs.b_table")
    t.install("besselhr.mellinbarnes", "mb_eval_est", "mb.eval")
    t.install("besselhr.mellinbarnes", "mb_kernel_est", "mb.kernel")
    t.install("besselhr.kernel", "bessel_kernel", "kernel.bessel_kernel", on_exit=_kernel_exit)
    t.install("besselhr.kernel", "hankel_transform", "kernel.hankel_transform")
    t.install("besselhr.kernel", "functional_equation_check", "kernel.fe_check")
    t.install("besselhr.cli", "main", "cli.main")


# per_layer metrics: name -> (unit, better); BENCHMARK.json lists the same
PER_LAYER = {
    "backend.series_sum.calls": ("count", "lower"),
    "backend.series_sum.terms": ("count", "lower"),
    "backend.series_sum.ms": ("ms", "lower"),
    "backend.mb_integrand.calls": ("count", "lower"),
    "backend.mb_integrand.points": ("count", "lower"),
    "backend.mb_integrand.ms": ("ms", "lower"),
    "series.j_function.calls": ("count", "lower"),
    "series.j_function.ms": ("ms", "lower"),
    "series.first_kind.calls": ("count", "lower"),
    "series.first_kind.ms": ("ms", "lower"),
    "series.double_certified": ("ratio", "higher"),
    "series.bigfloat.rounds": ("count", "lower"),
    "series.bigfloat.max_dps": ("digits", "lower"),
    "series.bigfloat.ms": ("ms", "lower"),
    "series.cauchy.calls": ("count", "lower"),
    "asympt.j_varsigma.calls": ("count", "lower"),
    "asympt.j_varsigma.ms": ("ms", "lower"),
    "coeffs.b_table.builds": ("count", "lower"),
    "coeffs.b_table.ms": ("ms", "lower"),
    "mb.eval.calls": ("count", "lower"),
    "mb.eval.ms": ("ms", "lower"),
    "mb.kernel.calls": ("count", "lower"),
    "mb.kernel.ms": ("ms", "lower"),
    "mb.panels": ("count", "lower"),
    "mb.tail_probes": ("count", "lower"),
    "kernel.route.series": ("count", "lower"),
    "kernel.route.asymptotic": ("count", "higher"),
    "kernel.route.mb": ("count", "lower"),
    "kernel.bessel_kernel.ms": ("ms", "lower"),
    "kernel.signvec_terms": ("calls/call", "lower"),
    "kernel.grid.nodes": ("count", "lower"),
    "kernel.hankel_transform.ms": ("ms", "lower"),
    "kernel.fe_check.ms": ("ms", "lower"),
    "kernel.quadrature.ms": ("ms", "lower"),
    "cli.main.ms": ("ms", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
}

# cached across rounds by coeffs.b_table_cached, so reported per run
_PER_RUN = ("coeffs.b_table.builds", "coeffs.b_table.ms")


def layer_metrics(tr: Tracer, rounds: int, bytes_out: int) -> dict:
    """Per-layer values, per round except the per-run b-table figures."""
    ms = 1e-6
    kcalls = tr.calls["kernel.bessel_kernel"]
    j_calls = tr.calls["series.j_function"]
    signvec_in_kernel = (
        tr.child_calls[("kernel.bessel_kernel", "series.j_function")]
        + tr.child_calls[("kernel.bessel_kernel", "asympt.j_varsigma")]
    )
    grid_nodes = (
        tr.child_calls[("kernel.hankel_transform", "kernel.bessel_kernel")]
        + tr.child_calls[("kernel.fe_check", "kernel.bessel_kernel")]
    )
    raw = {
        "backend.series_sum.calls": tr.calls["backend.series_sum"],
        "backend.series_sum.terms": tr.counts["backend.series_sum.terms"],
        "backend.series_sum.ms": tr.total_ns["backend.series_sum"] * ms,
        "backend.mb_integrand.calls": tr.calls["backend.mb_integrand"],
        "backend.mb_integrand.points": tr.counts["backend.mb_integrand.points"],
        "backend.mb_integrand.ms": tr.total_ns["backend.mb_integrand"] * ms,
        "series.j_function.calls": j_calls,
        "series.j_function.ms": tr.total_ns["series.j_function"] * ms,
        "series.first_kind.calls": tr.calls["series.first_kind"],
        "series.first_kind.ms": tr.total_ns["series.first_kind"] * ms,
        "series.bigfloat.rounds": tr.counts["series.bigfloat.rounds"],
        "series.bigfloat.ms": tr.total_ns["series.bigfloat"] * ms,
        "series.cauchy.calls": tr.counts["series.cauchy.calls"],
        "asympt.j_varsigma.calls": tr.calls["asympt.j_varsigma"],
        "asympt.j_varsigma.ms": tr.total_ns["asympt.j_varsigma"] * ms,
        "coeffs.b_table.builds": tr.calls["coeffs.b_table"],
        "coeffs.b_table.ms": tr.total_ns["coeffs.b_table"] * ms,
        "mb.eval.calls": tr.calls["mb.eval"],
        "mb.eval.ms": tr.total_ns["mb.eval"] * ms,
        "mb.kernel.calls": tr.calls["mb.kernel"],
        "mb.kernel.ms": tr.total_ns["mb.kernel"] * ms,
        "mb.panels": tr.counts["mb.panels"],
        "mb.tail_probes": tr.counts["mb.tail_probes"],
        "kernel.route.series": tr.counts["kernel.route.series"],
        "kernel.route.asymptotic": tr.counts["kernel.route.asymptotic"],
        "kernel.route.mb": tr.counts["kernel.route.mb"],
        "kernel.bessel_kernel.ms": tr.total_ns["kernel.bessel_kernel"] * ms,
        "kernel.grid.nodes": grid_nodes,
        "kernel.hankel_transform.ms": tr.total_ns["kernel.hankel_transform"] * ms,
        "kernel.fe_check.ms": tr.total_ns["kernel.fe_check"] * ms,
        "kernel.quadrature.ms": (
            tr.self_ns["kernel.hankel_transform"] + tr.self_ns["kernel.fe_check"]
        ) * ms,
        "cli.main.ms": tr.self_ns["cli.main"] * ms,
        "cli.bytes_out": bytes_out,
    }
    out = {k: (v if k in _PER_RUN else v / rounds) for k, v in raw.items()}
    out["series.double_certified"] = (
        tr.counts["series.double_finished"] / j_calls if j_calls else 1.0
    )
    out["series.bigfloat.max_dps"] = tr.max_dps
    out["kernel.signvec_terms"] = signvec_in_kernel / kcalls if kcalls else 0.0
    return {k: out[k] for k in PER_LAYER}


def write_spans(tr: Tracer, path) -> None:
    """Spans as JSON lines: id, parent id, name, start ns, end ns."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"missing": tr.missing, "dropped_spans": tr.dropped_spans}) + "\n")
        for span in tr.spans:
            fh.write(json.dumps(span) + "\n")
