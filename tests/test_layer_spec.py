"""The benchmark's layer table must name real functions, parameters and fields.

``perfbench/layers.py`` wraps each ``SPEC`` function with ``getattr`` and
reads arguments and results by name, so a rename in ``rwre`` would otherwise
break only a traced benchmark run.  The module is loaded from its file and
only inspected: nothing is wrapped.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import re
import typing
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
_SUBSCRIPT = re.compile(r'bound\["(\w+)"\]')
_GET = re.compile(r'bound\.get\("(\w+)"')
_RESULT = re.compile(r"result\.(\w+)")
_SELF = re.compile(r'bound\["self"\]\.(\w+)')


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers_under_test", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entries():
    """(target, owner class or None, count and pre functions) per SPEC entry."""
    out = []
    for module_name, owner, attr, _, count, pre in _load_layers().SPEC:
        module = importlib.import_module(module_name)
        cls = getattr(module, owner) if owner is not None else None
        target = getattr(cls if cls is not None else module, attr)
        out.append((target, cls, [fn for fn in (count, pre) if fn is not None]))
    return out


def _field_names(tp) -> set:
    names = set(dir(tp))
    if dataclasses.is_dataclass(tp):
        names |= {f.name for f in dataclasses.fields(tp)}
    return names


def test_every_spec_entry_resolves():
    entries = _entries()
    assert entries
    for target, _, _ in entries:
        assert callable(target), target


def test_bound_parameters_exist():
    optional = {}  # count function -> (keys read with .get, parameters of its targets)
    for target, _, fns in _entries():
        params = set(inspect.signature(target).parameters)
        for fn in fns:
            src = inspect.getsource(fn)
            missing = set(_SUBSCRIPT.findall(src)) - params
            assert not missing, f"{fn.__name__} reads {missing} absent from {target.__qualname__}"
            keys, seen = optional.setdefault(fn, (set(_GET.findall(src)), set()))
            seen |= params
    # a key read with a default must still name a parameter of some target
    for fn, (keys, seen) in optional.items():
        assert keys <= seen, f"{fn.__name__} reads {keys - seen}, which no target takes"


def test_result_fields_exist():
    checked = set()
    for target, cls, fns in _entries():
        for fn in fns:
            src = inspect.getsource(fn)
            fields = set(_RESULT.findall(src))
            if fields:
                rtype = typing.get_type_hints(target)["return"]
                for name in fields:
                    assert name in _field_names(rtype), f"{rtype.__name__} has no {name}"
                    checked.add((rtype.__name__, name))
            for name in _SELF.findall(src):
                assert name in _field_names(cls), f"{cls.__name__} has no {name}"
                checked.add((cls.__name__, name))
    assert {
        ("MomentEstimate", "mean"), ("MomentEstimate", "n_samples"),
        ("WalkObservation", "path"), ("WalkObservation", "hit"),
        ("MomentProfile", "size"),
    } <= checked
