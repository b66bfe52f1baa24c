"""Per-layer counts and times for an in-process run of ``pdchannel``.

:meth:`Tracer.installed` replaces every public function of the program's
modules, ``numpy.linalg.eigh`` / ``eigvalsh`` and the optimizer entry point
with wrappers that count calls and add up wall time, and puts the
originals back on exit. The program's own code is not changed: its modules
look these names up at call time, so the wrappers see every call.

A function's time is inclusive and counts only its outermost call; a
module's time (``polar.s``) counts only outermost entries into the module.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from math import prod

import numpy as np

MODULES = ("cli", "zoo", "channel", "qmat", "entanglement", "degradability", "capacity", "polar")

# counts the benchmark requires to repeat exactly from pass to pass
EXACT_COUNTS = (
    "degradability.refine_iters",
    "capacity.objective_evals",
    "capacity.lbfgs_nit",
    "channel.apply.calls",
)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if metric == "kernel.eigh_work":
        return "computed_n3"  # sum of n^3 over the eigensolves, computed from shapes
    if metric == "cli.report_bytes":
        return "bytes"
    if metric.endswith(("_ratio", "_per_gradient")):
        return "ratio"
    if metric.endswith(("_s", ".s")):
        return "s"
    return "count"


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.counts = Counter()
        self._depth = Counter()

    def _timed(self, fn, key, module, after=None):
        calls, seconds, depth = self.calls, self.seconds, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            outer_fn, outer_mod = depth[key] == 0, depth[module] == 0
            depth[key] += 1
            depth[module] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[key] -= 1
                depth[module] -= 1
                if outer_fn:
                    seconds[key] += elapsed
                if outer_mod:
                    seconds[module] += elapsed
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_calls(self, fn, *keys):
        counts = self.counts

        def counted(*args, **kwargs):
            for key in keys:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _minimize(self, minimize):
        counts = self.counts

        @functools.wraps(minimize)
        def wrapper(fun, x0, *args, jac=None, **kwargs):
            # jac=True means fun returns the value and the gradient together
            keys = ("capacity.objective_evals",) + (("capacity.gradient_evals",) if jac is True else ())
            fun = self._count_calls(fun, *keys)
            if callable(jac):
                jac = self._count_calls(jac, "capacity.gradient_evals")
            res = minimize(fun, x0, *args, jac=jac, **kwargs)
            counts["capacity.restarts"] += 1
            counts["capacity.lbfgs_nit"] += int(getattr(res, "nit", 0))
            counts["capacity.lbfgs_nfev"] += int(getattr(res, "nfev", 0))
            return res

        return wrapper

    def _fd_gradient(self, fd_gradient):
        @functools.wraps(fd_gradient)
        def wrapper(f, *args, **kwargs):
            return fd_gradient(self._count_calls(f, "capacity.objective_evals"), *args, **kwargs)

        return wrapper

    def _eig_work(self, args, result):
        a = np.asarray(args[0])
        self.counts["kernel.eigh_work"] += prod(a.shape[:-2]) * a.shape[-1] ** 3

    def _solve_done(self, args, result):
        if getattr(result, "success", False):
            self.counts["degradability.certified"] += 1

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap the program's functions for the duration of the block."""
        patches = []

        def patch(owner, name, new):
            patches.append((owner, name, getattr(owner, name)))
            setattr(owner, name, new)

        try:
            for mod_name in MODULES:
                mod = importlib.import_module(f"{package.__name__}.{mod_name}")
                for name, obj in list(vars(mod).items()):
                    if name.startswith("_") or not inspect.isfunction(obj):
                        continue
                    if obj.__module__ != mod.__name__:
                        continue
                    key = f"{mod_name}.{name}"
                    after = self._solve_done if key == "degradability.solve_degrading_map" else None
                    patch(mod, name, self._timed(obj, key, mod_name, after))
            patch(np.linalg, "eigh", self._timed(np.linalg.eigh, "kernel.eigh", "kernel", self._eig_work))
            patch(np.linalg, "eigvalsh", self._timed(np.linalg.eigvalsh, "kernel.eigvalsh", "kernel"))
            cap = importlib.import_module(f"{package.__name__}.capacity")
            patch(cap.optimize, "minimize", self._minimize(cap.optimize.minimize))
            # the program's finite-difference gradient evaluates the objective
            # it is handed; count those evaluations too while it exists
            if hasattr(cap, "_fd_gradient"):
                patch(cap, "_fd_gradient", self._fd_gradient(cap._fd_gradient))
            yield self
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)

    def per_layer(self) -> dict:
        """The benchmark's per-layer metrics, by name."""
        c, s, n = self.calls, self.seconds, self.counts
        solves = c["degradability.solve_degrading_map"]
        grads = n["capacity.gradient_evals"]
        return {
            "degradability.solve.calls": solves,
            "degradability.solve_s": s["degradability.solve_degrading_map"],
            "degradability.certified": n["degradability.certified"],
            "degradability.certified_ratio": n["degradability.certified"] / solves if solves else 0.0,
            # only the refine loop converts a Choi matrix back to a transfer matrix
            "degradability.refine_iters": c["degradability.transfer_of_choi"],
            "degradability.choi_of_transfer.calls": c["degradability.choi_of_transfer"],
            "qmat.partial_trace.calls": c["qmat.partial_trace"],
            "qmat.partial_trace_s": s["qmat.partial_trace"],
            "qmat.pinv_s": s["qmat.pinv"],
            "qmat.eigh.calls": c["qmat.eigh"],
            "qmat.eigh_s": s["qmat.eigh"],
            "kernel.eigh.calls": c["kernel.eigh"],
            "kernel.eigh_s": s["kernel.eigh"],
            "kernel.eigh_work": n["kernel.eigh_work"],
            "kernel.eigvalsh.calls": c["kernel.eigvalsh"],
            "kernel.eigvalsh_s": s["kernel.eigvalsh"],
            "capacity.maximize.calls": c["capacity.maximize_coherent_information"],
            "capacity.maximize_s": s["capacity.maximize_coherent_information"],
            "capacity.restarts": n["capacity.restarts"],
            "capacity.lbfgs_nit": n["capacity.lbfgs_nit"],
            "capacity.lbfgs_nfev": n["capacity.lbfgs_nfev"],
            "capacity.gradient_evals": grads,
            "capacity.objective_evals": n["capacity.objective_evals"],
            "capacity.objective_evals_per_gradient": n["capacity.objective_evals"] / grads if grads else 0.0,
            "channel.apply.calls": c["channel.apply"],
            "channel.apply_s": s["channel.apply"],
            "channel.complementary.calls": c["channel.complementary"],
            "channel.to_choi_s": s["channel.to_choi"],
            "channel.validate_s": s["channel.validate"],
            "channel.load_channel_s": s["channel.load_channel"],
            "channel.kraus_from_choi_s": s["channel.kraus_from_choi"],
            "entanglement.entropy.calls": c["entanglement.entropy"],
            "entanglement.entropy_s": s["entanglement.entropy"],
            "entanglement.bound_entanglement_report_s": s["entanglement.bound_entanglement_report"],
            "zoo.build_entry.calls": c["zoo.build_entry"],
            "zoo.build_entry_s": s["zoo.build_entry"],
            "polar.s": s["polar"],
            "cli.main_s": s["cli.main"],
            "cli.report_bytes": n["cli.report_bytes"],
        }

    def functions(self) -> dict:
        """Calls and outermost inclusive seconds of every wrapped function,
        and the seconds of each module."""
        keys = sorted(set(self.calls) | set(self.seconds))
        return {k: {"calls": self.calls.get(k, 0), "seconds": self.seconds.get(k, 0.0)} for k in keys}
