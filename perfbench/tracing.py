"""Per-layer tracing from outside the library.

Tracer.install() rebinds the public functions of each bilayer1d module,
in every module namespace that holds them, to wrappers that record a
span (name, start, end, parent) and per-layer counts; uninstall()
restores the originals.  A layer's self time is the time inside its
spans minus the time inside their child spans.  The oracle module is
the tests' reference and is not wrapped.
"""

import dataclasses
import functools
import inspect
import os
import time

import numpy as np

LAYERS = ("core", "kernels", "xfer", "bound", "squeeze", "limits", "probes", "cli")
MODULES = LAYERS + ("oracle",)
# methods that carry a layer's work but are not module-level functions
METHODS = {
    "bound": {"ChiProblem": ("cleared",)},
    "xfer": {"PiecewiseWave": ("__call__", "derivative", "continuity_defect")},
    "limits": {"SqueezedInteraction": ("amplitudes", "transmission", "connection_matrix")},
}
PROBE_FACTORIES = ("bump", "gaussian_bump", "gaussian", "tabulated")


class _Frame:
    __slots__ = ("name", "layer", "child", "span")

    def __init__(self, name, layer, span):
        self.name, self.layer, self.child, self.span = name, layer, 0.0, span


class Tracer:
    """Spans and counts of one traced round at a time."""

    def __init__(self, lib):
        self.lib = lib
        self.spans = []
        self.keep_spans = False
        self._stack = []
        self._saved = []
        self.reset()

    def reset(self):
        self.counts = {}
        self.ncalls = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.inclusive = {}
        self.n_spans = 0

    def _add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def _enclosing(self, *names):
        for frame in reversed(self._stack):
            if frame.name in names:
                return frame.name
        return None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer, name, fn, after=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = _Frame(name, layer, tracer.n_spans)
            tracer.n_spans += 1
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.self_s[layer] += t1 - t0 - frame.child
                tracer.inclusive[name] = tracer.inclusive.get(name, 0.0) + (t1 - t0)
                tracer.ncalls[name] = tracer.ncalls.get(name, 0) + 1
                if tracer.keep_spans:
                    tracer.spans.append(
                        (frame.span, name, t0, t1, parent.span if parent else None))
                if parent is not None:
                    parent.child += t1 - t0
            if after is not None:
                after(args, kwargs, out)
            if parent is not None:
                # the tracer's own bookkeeping is no layer's self time
                parent.child += clock() - t1
            return out

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        lib = self.lib
        mods = {name: getattr(lib, name) for name in MODULES}
        namespaces = list(mods.values()) + [lib.package]
        hooks = self._hooks()
        for layer in LAYERS:
            mod = mods[layer]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(layer, f"{layer}.{attr}", fn,
                                     hooks.get(f"{layer}.{attr}"))
                if layer == "probes" and attr in PROBE_FACTORIES:
                    wrapper = self._probe_factory(wrapper)
                for ns in namespaces:
                    if ns.__dict__.get(attr) is fn:
                        self._patch(ns, attr, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    self._patch(cls, meth, self._wrap(layer, name, fn, hooks.get(name)))
        # scipy's brentq as called by the bound layer: candidates and the
        # callback evaluations of the scan refinements and the verifier
        brentq = mods["bound"].brentq
        self._patch(mods["bound"], "brentq", self._wrap("bound", "bound.brentq",
                                                        self._counted_brentq(brentq)))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- counts -------------------------------------------------------------

    def _counted_brentq(self, brentq):
        tracer = self

        def counted(f, a, b, *args, **kwargs):
            where = tracer._enclosing("bound.find_roots", "bound.verify_ladder")
            if where == "bound.find_roots":
                tracer._add("bound.candidates")
            key = "bound.verify.brent_evals" if where == "bound.verify_ladder" else None

            def g(x, *fargs):
                if key:
                    tracer._add(key)
                return f(x, *fargs)

            return brentq(g, a, b, *args, **kwargs)

        return counted

    def _probe_factory(self, factory):
        tracer = self

        def make(*args, **kwargs):
            probe = factory(*args, **kwargs)
            return dataclasses.replace(
                probe,
                f=tracer._wrap("probes", "probes.f", probe.f, tracer._probe_eval),
                df=tracer._wrap("probes", "probes.df", probe.df, tracer._probe_eval))

        return make

    def _probe_eval(self, args, kwargs, out):
        # evaluations made by another probe (a window) are not counted again
        if not any(f.layer == "probes" for f in self._stack):
            self._add("probes.evals")

    def _hooks(self):
        def kernel(args, kwargs, out):
            w = args[0] if args else kwargs.get("w", kwargs.get("z"))
            self._add("kernels.elements", np.size(w))
            if np.ndim(w) == 0:
                self._add("kernels.scalar_calls")

        def matrix_entries(args, kwargs, out):
            self._add("xfer.matrix_entries.elements", np.size(args[1]))

        def amplitude_grid(args, kwargs, out):
            self._add("xfer.amplitude_grid.k_points", np.size(args[1]))

        def cleared(args, kwargs, out):
            if self._enclosing("bound.find_roots") is None:
                return
            if np.ndim(args[1]) == 0:
                self._add("bound.brent_evals")
            else:
                self._add("bound.scan_points", np.size(args[1]))

        def find_roots(args, kwargs, out):
            self._add("bound.levels", out.n)

        def sweep(args, kwargs, out):
            self._add("squeeze.eps_points", len(out.eps))

        def main(args, kwargs, out):
            argv = list(args[0])
            folder = argv[argv.index("--out") + 1]
            self._add("cli.bytes_written", sum(
                os.path.getsize(os.path.join(folder, f)) for f in os.listdir(folder)))

        hooks = {f"kernels.{k}": kernel
                 for k in ("cos_sqrt", "sinc_sqrt", "tanc_sqrt", "tanhc")}
        hooks.update({
            "xfer.matrix_entries": matrix_entries,
            "xfer.amplitude_grid": amplitude_grid,
            "bound.ChiProblem.cleared": cleared,
            "bound.find_roots": find_roots,
            "squeeze.sweep_ladder": sweep,
            "cli.main": main,
        })
        return hooks

    # -- report ---------------------------------------------------------------

    def metrics(self):
        """Per-layer figures of the round traced since the last reset."""
        c, n, inc = self.counts, self.ncalls, self.inclusive

        def calls(prefix):
            return sum(v for k, v in n.items() if k.startswith(prefix))

        candidates = c.get("bound.candidates", 0)
        levels = c.get("bound.levels", 0)
        out = {
            "kernels.calls": calls("kernels."),
            "kernels.scalar_calls": c.get("kernels.scalar_calls", 0),
            "kernels.elements": c.get("kernels.elements", 0),
            "xfer.scattering_data.calls": n.get("xfer.scattering_data", 0),
            "xfer.amplitude_grid.k_points": c.get("xfer.amplitude_grid.k_points", 0),
            "xfer.matrix_entries.calls": n.get("xfer.matrix_entries", 0),
            "xfer.matrix_entries.elements": c.get("xfer.matrix_entries.elements", 0),
            "bound.find_roots.calls": n.get("bound.find_roots", 0),
            "bound.find_roots.s": inc.get("bound.find_roots", 0.0),
            "bound.scan_points": c.get("bound.scan_points", 0),
            "bound.brent_evals": c.get("bound.brent_evals", 0),
            "bound.candidates": candidates,
            "bound.levels": levels,
            "bound.accept_ratio": levels / candidates if candidates else 0.0,
            "bound.verify_ladder.s": inc.get("bound.verify_ladder", 0.0),
            "bound.verify.brent_evals": c.get("bound.verify.brent_evals", 0),
            "squeeze.sweep_ladder.s": inc.get("squeeze.sweep_ladder", 0.0),
            "squeeze.eps_points": c.get("squeeze.eps_points", 0),
            "squeeze.interaction_limit.s": inc.get("squeeze.interaction_limit", 0.0),
            "squeeze.delta_prime_pairing.s": inc.get("squeeze.delta_prime_pairing", 0.0),
            "limits.calls": calls("limits."),
            "probes.evals": c.get("probes.evals", 0),
            "cli.invocations": n.get("cli.main", 0),
            "cli.bytes_written": c.get("cli.bytes_written", 0),
            "core.calls": calls("core."),
            "trace.spans": self.n_spans,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
        return out
