"""Run one k3scan command with spans recorded around each layer's public names.

Usage: python3 perfbench/trace_child.py TRACE_OUT.json <k3scan cli arguments>

The program is not edited: after `import k3scan.cli` every module-level
binding of each name listed in SPANS is replaced by a wrapper that records a
span (name, start, end, parent) and, for some names, counts taken from the
call's arguments and result.  The command then runs through
`k3scan.cli.run`, and its output is written exactly as `python -m
k3scan.cli` writes it.  Spans and counters go to TRACE_OUT.json.  A listed
name the program no longer has is reported under "absent".
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

# (span name, module, attribute).  Every k3scan module attribute bound to the
# same function object is wrapped, so a name is traced however it is imported.
SPANS = (
    ("cone.vinberg_sieve", "k3scan.cone", "vinberg_sieve"),
    ("cone.chamber_vertices", "k3scan.cone", "chamber_vertices"),
    ("cone.is_nef", "k3scan.series", "is_nef"),
    ("enumeration", "k3scan.enumeration", "classes_with_square_and_degree"),
    ("series", "k3scan.cli", "theta_series"),
    ("series", "k3scan.cli", "xi_series"),
    ("classify.search", "k3scan.cli", "search_template"),
    ("classify.identify_type", "k3scan.classify", "identify_type"),
    ("isometry.isometry_small", "k3scan.classify", "isometry_small"),
    ("lattice.discriminant_group", "k3scan.lattice", "discriminant_group"),
    ("lattice.isotropic_elements", "k3scan.lattice", "isotropic_elements"),
    ("lattice.overlattice_from_isotropic", "k3scan.lattice", "overlattice_from_isotropic"),
)


def _count_result(name, counters, args, result):
    """Work counters read from outside the call."""
    c = counters.setdefault(name, {})

    def add(key, n):
        c[key] = c.get(key, 0) + n

    if name == "enumeration":
        add("classes", len(result))
    elif name == "cone.is_nef":
        add("passed", int(bool(result)))
    elif name in ("classify.identify_type", "isometry.isometry_small"):
        add("found", int(result is not None))
    elif name == "classify.search":
        add("solutions", len(result.solutions))
    elif name == "lattice.isotropic_elements":
        add("elements_scanned", args[0].order())
        add("found", len(result))


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, dict[str, int]] = {}
        self.absent: list[str] = []

    def wrap(self, name, fn, stats_factory=None):
        spans, stack, counters, clock = self.spans, self.stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            stats = None
            if stats_factory is not None and "stats" not in kwargs:
                stats = kwargs["stats"] = stats_factory()
            idx = len(spans)
            spans.append([name, clock() - self.t0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock() - self.t0
            _count_result(name, counters, args, result)
            if stats is not None:
                c = counters[name]
                c["lifts_tried"] = c.get("lifts_tried", 0) + stats.lifts_tried
                c["lifts_discarded"] = c.get("lifts_discarded", 0) + stats.lifts_discarded
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "k3scan" or n.startswith("k3scan.")]
        for name, module_name, attr in SPANS:
            try:
                fn = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            stats_factory = None
            if name == "enumeration":
                stats_factory = self._enumeration_stats(fn)
            wrapper = self.wrap(name, fn, stats_factory)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)

    def _enumeration_stats(self, fn):
        """The public EnumerationStats, if the kernel still takes stats=."""
        enumeration = sys.modules.get("k3scan.enumeration")
        factory = getattr(enumeration, "EnumerationStats", None)
        try:
            takes_stats = "stats" in inspect.signature(fn).parameters
        except (TypeError, ValueError):
            takes_stats = False
        if factory is None or not takes_stats:
            self.absent.append("k3scan.enumeration.classes_with_square_and_degree(stats=)")
            return None
        return factory

    def dump(self, path, import_s: float) -> None:
        doc = {
            "import_s": import_s,
            "absent": self.absent,
            "counters": self.counters,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    t = time.perf_counter()
    import k3scan.cli as cli

    import_s = time.perf_counter() - t
    tracer = Tracer()
    tracer.install()
    code, text = cli.run(cli_args)
    (sys.stdout if code == 0 else sys.stderr).write(text)
    tracer.dump(out_path, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
