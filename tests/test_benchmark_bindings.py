"""The package names that the benchmark's tracer binds to.

`perfbench/tracer.py` wraps each function of its `TRACED` table by name
and reads `FactoredChar.factors`, so trimming any of them from the
package would break the benchmark.  The tracer is loaded from its file,
read-only, without importing the rest of `perfbench`.
"""
import importlib
import importlib.util
import os

from higgsmult.polyalg import FactoredChar

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_module_level_callables():
    tracer = _tracer()
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"higgsmult.{layer}")
        for name in names:
            assert callable(vars(module).get(name)), f"higgsmult.{layer}.{name}"


def test_factored_char_keeps_factors():
    f = FactoredChar({3: 5, 1: -6})
    assert f.factors == ((1, -6), (3, 5))
    assert _tracer()._numerator_degree(f) == 15
