import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_are_distinct_graphstab_functions():
    # an alias (say `bank_il_constant = integral_lipschitz_check`) would be
    # wrapped twice by the tracer and show only as a wrong traced count
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [getattr(importlib.import_module(f"graphstab.{module}"), name)
               for module, names in tracer.TARGETS.items() for name in names]
    assert all(inspect.isfunction(f) for f in targets)
    assert len({id(f) for f in targets}) == len(targets)
