"""Per-layer tracing of `wtl` from the outside.

`Tracer.install` replaces each traced function with a timing wrapper
wherever callers look it up: the module globals of every `wtl` module
that binds it (so recursive and internal calls are seen too) and, for
methods, the `Wts` class.  Each call becomes a span with a name, start,
end, parent span and request id.  Very hot functions are only
aggregated (count and time), not kept as separate spans.  A span's self
time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import sys
import time

# Span name -> (module, attribute, ...); "Wts." attributes are methods.
TRACED = {
    "cli.run": ("wtl.cli", "run"),
    "wts.parse_wts": ("wtl.wts", "parse_wts"),
    "wts.serialize_wts": ("wtl.wts", "serialize_wts"),
    "wts.random_wts": ("wtl.wts", "random_wts"),
    "wts.Wts": ("wtl.wts", "Wts.__init__"),
    "wts.image_set": ("wtl.wts", "Wts.image_set"),
    "wts.theta": ("wtl.wts", "Wts.theta_min", "Wts.theta_max"),
    "formulas.parse_formula": ("wtl.formulas", "parse_formula"),
    "formulas.print_formula": ("wtl.formulas", "print_formula"),
    "formulas.sat_set": ("wtl.formulas", "sat_set"),
    "formulas.model_check": ("wtl.formulas", "model_check"),
    "bisimulation.generalized_bisimilarity": ("wtl.bisimulation", "generalized_bisimilarity"),
    "bisimulation.weighted_bisimilarity": ("wtl.bisimulation", "weighted_bisimilarity"),
    "bisimulation.quotient_model": ("wtl.bisimulation", "quotient_model"),
    "bisimulation.distinguishing_formula": ("wtl.bisimulation", "distinguishing_formula"),
    "tableau.is_satisfiable": ("wtl.tableau", "is_satisfiable"),
    "tableau.build_tableau": ("wtl.tableau", "build_tableau"),
    "tableau.find_witness": ("wtl.tableau", "find_witness"),
    "tableau.entails": ("wtl.tableau", "entails"),
    "tableau.extract_model": ("wtl.tableau", "extract_model"),
    "axioms.run_suite": ("wtl.axioms", "run_suite"),
    "axioms.holds_everywhere": ("wtl.axioms", "holds_everywhere"),
    "axioms.instantiate": ("wtl.axioms", "instantiate"),
}

# Called up to millions of times per run: counted and timed, no spans.
AGGREGATED = {
    "wts.Wts", "wts.image_set", "wts.theta", "formulas.sat_set",
    "formulas.parse_formula", "formulas.print_formula", "tableau.entails",
    "axioms.holds_everywhere", "axioms.instantiate",
}

# Self-recursive through their module global: only the outermost call counts.
OUTERMOST_ONLY = {"formulas.print_formula"}


def _tableau_nodes(tableau) -> int:
    count, stack = 0, [tableau.root]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children)
    return count


# Span name -> (quantity name, function of (args, result)).
QUANTITIES = {
    "wts.parse_wts": ("bytes", lambda args, result: len(args[0])),
    "wts.serialize_wts": ("bytes", lambda args, result: len(result)),
    "formulas.print_formula": ("chars", lambda args, result: len(result)),
    "bisimulation.generalized_bisimilarity": ("blocks", lambda args, r: len(r.blocks)),
    "bisimulation.weighted_bisimilarity": ("blocks", lambda args, r: len(r.blocks)),
    "bisimulation.quotient_model": ("states", lambda args, r: len(r.states)),
    "tableau.build_tableau": ("nodes", lambda args, r: _tableau_nodes(r)),
    "tableau.extract_model": ("verified", lambda args, r: int(r[2])),
}


class _Frame:
    __slots__ = ("name", "span_id", "child_ns", "children")

    def __init__(self, name, span_id):
        self.name = name
        self.span_id = span_id
        self.child_ns = 0
        self.children = set()


class Tracer:
    def __init__(self):
        self.request = -1
        self.spans: list[tuple] = []   # (id, name, start_ns, end_ns, parent id, request)
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.quantity: dict[str, int] = {}
        self.entails_hits = 0
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        stack = self._stack
        keep_span = name not in AGGREGATED
        outermost_only = name in OUTERMOST_ONLY
        measure = QUANTITIES.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if outermost_only and stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            frame = _Frame(name, span_id)
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent.child_ns += elapsed
                    parent.children.add(name)
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_ns[name] = self.self_ns.get(name, 0) + elapsed - frame.child_ns
                if keep_span:
                    self.spans.append((span_id, name, start, end,
                                       None if parent is None else parent.span_id,
                                       self.request))
            if measure is not None:
                self.quantity[name] = self.quantity.get(name, 0) + measure[1](args, result)
            if name == "tableau.entails" and "tableau.build_tableau" not in frame.children:
                self.entails_hits += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function of the already imported `wtl`."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "wtl" or n.startswith("wtl.")]
        for name, (module_name, *attrs) in TRACED.items():
            module = sys.modules[module_name]
            for attr in attrs:
                if attr.startswith("Wts."):
                    cls, method = module.Wts, attr[len("Wts."):]
                    original = cls.__dict__[method]
                    self._undo.append((cls, method, original))
                    setattr(cls, method, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, key, original))
                            setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def layer_metrics(self) -> dict:
        """Per-layer metric name -> value."""
        values = {}
        for name in TRACED:
            values[f"{name}.calls"] = self.calls.get(name, 0)
            values[f"{name}.self_ms"] = self.self_ns.get(name, 0) / 1e6
        for name, (quantity, _) in QUANTITIES.items():
            values[f"{name}.{quantity}"] = self.quantity.get(name, 0)
        extracted = self.calls.get("tableau.extract_model", 0)
        values["tableau.extract_model.verified_ratio"] = (
            self.quantity.get("tableau.extract_model", 0) / extracted if extracted else 0.0)
        entails = self.calls.get("tableau.entails", 0)
        values["tableau.entails.hit_ratio"] = self.entails_hits / entails if entails else 0.0
        return values

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent,
                                         "request": request}) + "\n")
