"""The benchmark's layer tracer binds engine names from outside the package.

``perfbench/layertrace.py`` looks up functions and ``CubeComplex`` methods by
name and wraps the cached ``CubeComplex`` builders as ``(cube, i)``; an
engine change that deletes or renames one of them, or changes the signature
of a wrapped method, would crash the traced benchmark.  So installing the
tracer and computing under it is part of the engine's tests.
"""

import importlib.util
import os

import khoma
import khoma.verify
import khoma.zalgebra
from khoma.cube import CubeComplex
from khoma.diagram import torus_word
from khoma.homology import AbGroup

LAYERTRACE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "layertrace.py"
)


def test_layer_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    snf, check_les, edge = khoma.zalgebra.snf, khoma.verify.check_les, CubeComplex.edge

    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert khoma.zalgebra.snf is not snf
        assert khoma.verify.check_les is not check_les
        assert CubeComplex.edge is not edge
        table = khoma.homology(torus_word(2, 5))
        assert table.group(0, 5) == AbGroup(1)
        assert khoma.homology_group_at(torus_word(3, 4), 4, 3) == AbGroup(1)
        values = tracer.values
        assert values["homology.group_at.calls"] == 1
        assert values["zalgebra.snf.calls"] > 0
        assert values["cube.vertices_by_eps.calls"] > 0
        # assembly reads edges inline; the counter still counts direct calls
        calls = values["cube.edge.calls"]
        CubeComplex(torus_word(2, 3)).edge(0, 0)
        assert values["cube.edge.calls"] == calls + 1
    finally:
        tracer.uninstall()
    assert khoma.zalgebra.snf is snf
    assert khoma.verify.check_les is check_les
    assert CubeComplex.edge is edge
