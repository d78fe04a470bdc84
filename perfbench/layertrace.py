"""Per-layer tracing installed from outside the package.

``Tracer.install`` replaces public functions of the ``deltaplus`` modules
with timing wrappers.  A module that imported a name holds its own
reference, so every module namespace holding the original object gets the
wrapper.  ``uninstall`` puts the originals back.

Three kinds of wrapper:

- a span: name, start, end and parent are kept in memory for every call,
  and the call's self time (its duration minus the child spans it covers)
  is summed per name;
- a leaf (the T and L descriptors' ``__call__``): counted and timed, its
  time charged to the enclosing span as child time, but not kept as a span
  record, since there are hundreds of thousands per round;
- a counter (``ExtRat``/``UnitRat`` construction, ``ext_cmp``,
  ``DDF.value_at``): counted only.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.calls: Counter[str] = Counter()
        self.work: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, child = self.spans, self._stack, self._child
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                inner = child.pop()
                spans[idx] = (name, start, end, parent)
                self_s[name] += end - start - inner
                calls[name] += 1
                if child:
                    child[-1] += end - start
            return result

        return wrapper

    def _leaf(self, name, fn):
        child, calls, self_s = self._child, self.calls, self.self_s

        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            spent = perf_counter() - start
            calls[name] += 1
            self_s[name] += spent
            if child:
                child[-1] += spent
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- installation -----------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "deltaplus"]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _replace_attr(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, dp) -> None:
        """Wrap the layers of the imported package ``dp`` (``deltaplus``)."""
        m = sys.modules
        tau_mod, ddf_mod = m["deltaplus.tau"], m["deltaplus.ddf"]
        tn_mod, tc_mod = m["deltaplus.tnorms"], m["deltaplus.tconorms"]
        work = self.work

        def grid_cells(grid):
            work["tau.build_grid.cells"] += len(grid.cuts_f) * len(grid.cuts_g)
            return grid

        build_grid = tau_mod.build_grid
        self._replace_everywhere(
            build_grid, self._span("tau.build_grid", lambda *a: grid_cells(build_grid(*a)))
        )

        canonicalize = ddf_mod.canonicalize

        def counted_canonicalize(raw):
            raw = list(raw)
            work["ddf.canonicalize.in_jumps"] += len(raw)
            out = canonicalize(raw)
            work["ddf.canonicalize.out_jumps"] += len(out.jumps)
            return out

        self._replace_everywhere(
            canonicalize, self._span("ddf.canonicalize", counted_canonicalize)
        )

        spans = (
            ("tau.tau", tau_mod.tau),
            ("tau.tau_raw_at", tau_mod.tau_raw_at),
            ("tau.probe_abscissae", tau_mod.probe_abscissae),
            ("ddf.parse_ddf", ddf_mod.parse_ddf),
            ("ddf.serialize", ddf_mod.serialize),
            ("tnorms.check_tnorm_axioms", tn_mod.check_tnorm_axioms),
            ("tnorms.continuity", tn_mod.check_weak_left_continuity),
            ("tnorms.continuity", tn_mod.check_left_continuity),
            ("tconorms.check_tconorm_axioms", tc_mod.check_tconorm_axioms),
            ("tconorms.check_LCS", tc_mod.check_LCS),
            ("tconorms.is_archimedean", tc_mod.is_archimedean),
            ("lawcheck.mine_counterexample", m["deltaplus.lawcheck"].mine_counterexample),
            ("classify.classify", m["deltaplus.classify"].classify),
            ("cli.main", m["deltaplus.cli"].main),
        )
        for name, fn in spans:
            self._replace_everywhere(fn, self._span(name, fn))

        self._replace_attr(dp.TNormDesc, "__call__", self._leaf("tnorms.T", dp.TNormDesc.__call__))
        self._replace_attr(dp.TConormDesc, "__call__", self._leaf("tconorms.L", dp.TConormDesc.__call__))
        self._replace_attr(dp.DDF, "value_at", self._counter("ddf.DDF.value_at", dp.DDF.value_at))
        self._replace_attr(dp.ExtRat, "__init__", self._counter("rationals.ExtRat", dp.ExtRat.__init__))
        self._replace_attr(dp.UnitRat, "__init__", self._counter("rationals.UnitRat", dp.UnitRat.__init__))
        ext_cmp = m["deltaplus.rationals"].ext_cmp
        self._replace_everywhere(ext_cmp, self._counter("rationals.ext_cmp", ext_cmp))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # ---- results ------------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
