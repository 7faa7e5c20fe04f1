"""The benchmark's layer tracer binds engine names from outside the package.

``perfbench/layertrace.py`` looks up functions and ``CubeComplex`` methods by
name; an engine change that deletes or renames one of them would crash the
traced benchmark, so installing the tracer is part of the engine's tests.
"""

import importlib.util
import os

import khoma.verify
import khoma.zalgebra
from khoma.cube import CubeComplex

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
    finally:
        tracer.uninstall()
    assert khoma.zalgebra.snf is snf
    assert khoma.verify.check_les is check_les
    assert CubeComplex.edge is edge
