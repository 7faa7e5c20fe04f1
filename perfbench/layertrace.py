"""Per-layer tracing of the khoma package from outside, by rebinding names.

A module that did ``from .zalgebra import snf`` holds its own reference to
the function, so wrapping ``khoma.zalgebra.snf`` alone would miss its
callers.  ``Tracer.install`` therefore rebinds a wrapper at every site in
every loaded ``khoma`` module where the original object is bound, and wraps
``CubeComplex`` methods on the class.  ``Tracer.uninstall`` undoes it all.

A span records its calls and its self time: its duration minus the part of
it that child spans cover.  Hot tiny functions (``CubeComplex.vertex``,
``CubeComplex.edge``, ``label_crossings``) are counted, not timed, so their
time lands in the caller's self time.  The ``CubeComplex`` methods that build
a degree once and then return it from a cache are timed only when they build.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import defaultdict
from time import perf_counter

import khoma.cli
import khoma.cube
import khoma.diagram
import khoma.invariants
import khoma.verify
import khoma.zalgebra

HOMOLOGY = sys.modules["khoma.homology"]
CubeComplex = khoma.cube.CubeComplex

# (metric name, unit), in the order printed; BENCHMARK.json lists the same.
LAYER_METRICS = (
    ("zalgebra.snf.calls", "count"),
    ("zalgebra.snf.self_s", "s"),
    ("zalgebra.snf.in_nnz", "count"),
    ("zalgebra.snf.rank", "count"),
    ("zalgebra.snf.torsion_factors", "count"),
    ("zalgebra.rational.calls", "count"),
    ("zalgebra.rational.self_s", "s"),
    ("cube.differential_blocks.calls", "count"),
    ("cube.differential_blocks.self_s", "s"),
    ("cube.edge.calls", "count"),
    ("cube.vertex.calls", "count"),
    ("cube.vertices_by_eps.self_s", "s"),
    ("cube.chain_basis.self_s", "s"),
    ("cube.basis_index.self_s", "s"),
    ("cube.dim", "count"),
    ("cube.nnz", "count"),
    ("cube.max_block_rows", "count"),
    ("cube.max_block_cols", "count"),
    ("diagram.circles.calls", "count"),
    ("diagram.circles.self_s", "s"),
    ("diagram.circle_count.calls", "count"),
    ("diagram.circle_count.self_s", "s"),
    ("diagram.label_crossings.calls", "count"),
    ("homology.self_s", "s"),
    ("homology.group_at.calls", "count"),
    ("invariants.bracket.self_s", "s"),
    ("invariants.euler.self_s", "s"),
    ("verify.check_les.self_s", "s"),
    ("verify.check_conjecture1.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.cache.hits", "count"),
    ("cli.cache.misses", "count"),
    ("cli.cache.hit_ratio", "ratio"),
    ("cli.cache.bytes_written", "bytes"),
    ("cli.cache_get.self_s", "s"),
    ("cli.cache_put.self_s", "s"),
    ("cli.serialize.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Counters and self times keyed by layer name; off until installed."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(int)
        self._children = [0.0]  # per open span: time covered by its children
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, after=None):
        """Time ``fn`` as layer ``name``; ``after(args, result)`` adds counts."""
        values, children = self.values, self._children
        calls, self_s = f"{name}.calls", f"{name}.self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[calls] += 1
            children.append(0.0)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - started
                values[self_s] += duration - children.pop()
                children[-1] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def build_span(self, name, fn, cache_attr, after=None):
        """Span for a ``CubeComplex`` method that builds degree ``i`` once and
        caches it in ``cube.<cache_attr>``: every call is counted, but only a
        build is timed, so the many cached lookups cost no span."""
        timed = self.span(name, fn, after)
        values, calls = self.values, f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(cube, i):
            if i in getattr(cube, cache_attr):
                values[calls] += 1
                return fn(cube, i)
            return timed(cube, i)

        return wrapper

    def counter(self, name, fn):
        values, calls = self.values, f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _rebind(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "khoma" and not mod_name.startswith("khoma."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _rebind_method(self, name, replacement):
        self._undo.append((CubeComplex, name, CubeComplex.__dict__[name]))
        setattr(CubeComplex, name, replacement)

    def install(self):
        v = self.values

        def snf_counts(args, res):
            v["zalgebra.snf.in_nnz"] += args[0].nnz
            v["zalgebra.snf.rank"] += res.rank
            v["zalgebra.snf.torsion_factors"] += sum(1 for d in res.invariant_factors if d > 1)

        self._rebind(khoma.zalgebra.snf, self.span("zalgebra.snf", khoma.zalgebra.snf, snf_counts))
        for fn in (khoma.zalgebra.rank_q, khoma.zalgebra.kernel_basis_q, khoma.zalgebra.image_basis_q):
            self._rebind(fn, self.span("zalgebra.rational", fn))

        def block_counts(_args, blocks):
            for mat in blocks.values():
                v["cube.dim"] += mat.cols
                v["cube.nnz"] += mat.nnz
                v["cube.max_block_rows"] = max(v["cube.max_block_rows"], mat.rows)
                v["cube.max_block_cols"] = max(v["cube.max_block_cols"], mat.cols)

        for name, cache_attr, after in (
            ("differential_blocks", "_blocks", block_counts),
            ("vertices_by_eps", "_vertices", None),
            ("chain_basis", "_basis", None),
            ("basis_index", "_basis_index", None),
        ):
            method = getattr(CubeComplex, name)
            self._rebind_method(name, self.build_span(f"cube.{name}", method, cache_attr, after))
        for name in ("edge", "vertex"):
            self._rebind_method(name, self.counter(f"cube.{name}", getattr(CubeComplex, name)))

        self._rebind(khoma.diagram.circles, self.span("diagram.circles", khoma.diagram.circles))
        self._rebind(
            khoma.diagram.circle_count, self.span("diagram.circle_count", khoma.diagram.circle_count)
        )
        self._rebind(
            khoma.diagram.label_crossings,
            self.counter("diagram.label_crossings", khoma.diagram.label_crossings),
        )

        group_at = self.span("homology", HOMOLOGY.homology_group_at)

        def homology_group_at(*args, **kwargs):
            v["homology.group_at.calls"] += 1
            return group_at(*args, **kwargs)

        self._rebind(HOMOLOGY.homology_group_at, homology_group_at)
        for fn in (HOMOLOGY.homology, HOMOLOGY.homology_unnormalized):
            self._rebind(fn, self.span("homology", fn))

        for fn in (khoma.invariants.jones_from_bracket, khoma.invariants.kauffman_bracket):
            self._rebind(fn, self.span("invariants.bracket", fn))
        self._rebind(
            khoma.invariants.graded_euler, self.span("invariants.euler", khoma.invariants.graded_euler)
        )
        for fn in (khoma.verify.check_les, khoma.verify.check_conjecture1):
            self._rebind(fn, self.span(f"verify.{fn.__name__}", fn))

        def cache_get_counts(_args, record):
            v["cli.cache.hits" if record is not None else "cli.cache.misses"] += 1

        def cache_put_counts(args, stored):
            if stored:
                cache_dir, key = args[0], args[1]
                v["cli.cache.bytes_written"] += os.path.getsize(
                    os.path.join(cache_dir, f"{key}.json")
                )

        self._rebind(khoma.cli.main, self.span("cli.main", khoma.cli.main))
        self._rebind(khoma.cli.cache_get, self.span("cli.cache_get", khoma.cli.cache_get, cache_get_counts))
        self._rebind(khoma.cli.cache_put, self.span("cli.cache_put", khoma.cli.cache_put, cache_put_counts))
        self._rebind(khoma.cli.table_to_json, self.span("cli.serialize", khoma.cli.table_to_json))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- report -------------------------------------------------------------

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Every layer metric; ``bench.self_s`` is the time outside all spans."""
        v = dict(self.values)
        lookups = v.get("cli.cache.hits", 0) + v.get("cli.cache.misses", 0)
        v["cli.cache.hit_ratio"] = v.get("cli.cache.hits", 0) / lookups if lookups else 0.0
        v["bench.self_s"] = traced_wall_s - self._children[0]
        v["trace.wall_s"] = traced_wall_s
        v["trace.untraced_wall_s"] = untraced_wall_s
        v["trace.overhead_s"] = traced_wall_s - untraced_wall_s
        return {
            name: {"value": v.get(name, 0), "unit": unit} for name, unit in LAYER_METRICS
        }
