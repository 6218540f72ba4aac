"""Spans around the calls into degctrl's public functions.

The tracer rebinds each traced function at its import sites: every degctrl
module attribute that holds the original function is replaced by a wrapper
that records a span (name, start, end, parent, call id).  No degctrl source
is edited; ``uninstall`` restores the original bindings.  Solver counters
are read from the objects the traced functions return, except Picard
iterations, which are counted as evaluations of the problem's nonlocal
factor ell inside ``forward_solve_nonlinear``.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter, defaultdict

# layer (module) -> public functions whose calls get a span
LAYERS = {
    "cli": (
        "cmd_solve_forward",
        "cmd_null_control",
        "cmd_null_control_nonlinear",
        "cmd_verify",
        "write_csv",
    ),
    "config": ("load_config",),
    "newton": ("local_null_control", "residual_source"),
    "hum": ("solve_null_control", "build_stage", "minimize_Jn"),
    "pde": ("forward_solve_linear", "adjoint_solve", "forward_solve_nonlinear"),
    "verify": (
        "run_verifications",
        "hardy_poincare_ratio",
        "carleman_check",
        "energy_estimate_ratio",
        "nonlocal_sup_bound",
        "bilinear_bound_check",
        "e_norm",
    ),
    "grid": ("integrate_spacetime_logweight",),
    "weights": ("build_weight_fields", "build_truncated_fields"),
}


def _count_cg(counts, args, result):
    counts["hum.cg_iters"] += sum(st.cg_iters for st in result.stages)
    counts["hum.cg_iters_accepted"] += sum(st.cg_iters for st in result.stages if st.accepted)


def _count_newton(counts, args, result):
    counts["newton.outer_iters"] += len(result[2])


def _count_rows(counts, args, result):
    counts["verify.rows"] += len(result[0])


def _count_bytes(counts, args, result):
    counts["cli.write_csv.bytes"] += os.path.getsize(args[0])


_ON_RETURN = {
    "hum.solve_null_control": _count_cg,
    "newton.local_null_control": _count_newton,
    "verify.run_verifications": _count_rows,
    "cli.write_csv": _count_bytes,
}


class Tracer:
    """Collects the spans and counters of one pipeline call at a time."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.spans = []  # [name, start, end, parent index, call id]
        self.counts = Counter()
        self.call_id = 0
        self._open = []
        self._patches = []

    def reset(self, call_id: int) -> None:
        self.spans = []
        self.counts = Counter()
        self.call_id = call_id

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = [name, self._clock(), None, parent, self.call_id]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = self._clock()
                self._open.pop()

        return traced

    def _counted(self, name, fn):
        on_return = _ON_RETURN.get(name)
        if on_return is not None:

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_return(self.counts, args, result)
                return result

            return counted
        if name == "pde.forward_solve_nonlinear":

            def picard(pd, *args, **kwargs):
                ell = pd.ell.ell

                def counted_ell(r):
                    self.counts["pde.picard_iters"] += 1
                    return ell(r)

                pd.ell.ell = counted_ell
                try:
                    return fn(pd, *args, **kwargs)
                finally:
                    pd.ell.ell = ell

            return picard
        return fn

    def install(self) -> None:
        sites = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "degctrl"]
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"degctrl.{layer}")
            for fn_name in names:
                original = getattr(module, fn_name)
                name = f"{layer}.{fn_name}"
                wrapper = self._counted(name, self._span(name, original))
                for site in sites:
                    for attr, value in list(vars(site).items()):
                        if value is original:
                            self._patches.append((site, attr, original))
                            setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches = []


def layer_metrics(spans, counts, nt: int) -> dict:
    """Per-layer metrics of one traced call.

    For every traced function: ``.calls``, ``.s`` (inclusive time) and
    ``.self_s`` (time not covered by traced child spans).  Derived figures
    and the counters are added on top.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
    replay = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
        if parent is not None and spans[parent][0] == "newton.local_null_control":
            if name == "pde.forward_solve_nonlinear":
                replay += end - start

    m = {}
    for layer, names in LAYERS.items():
        for fn_name in names:
            name = f"{layer}.{fn_name}"
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = total[name]
            m[f"{name}.self_s"] = self_s[name]
    for key in (
        "hum.cg_iters",
        "hum.cg_iters_accepted",
        "newton.outer_iters",
        "pde.picard_iters",
        "verify.rows",
        "cli.write_csv.bytes",
    ):
        m[key] = counts[key]
    linear = ("pde.forward_solve_linear", "pde.adjoint_solve")
    steps = sum(calls[n] for n in linear) * nt
    m["pde.us_per_step"] = 1e6 * sum(self_s[n] for n in linear) / steps if steps else 0.0
    cg = counts["hum.cg_iters"]
    m["hum.useful_ratio"] = counts["hum.cg_iters_accepted"] / cg if cg else 0.0
    m["hum.s_per_cg_iter"] = total["hum.minimize_Jn"] / cg if cg else 0.0
    m["newton.replay_s"] = replay
    return m


def counts_of(metrics: dict) -> dict:
    """The metrics that must repeat exactly across calls on one input."""
    return {k: v for k, v in metrics.items() if isinstance(v, int)}
