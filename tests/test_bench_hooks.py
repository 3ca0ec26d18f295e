"""The benchmark's tracer must keep finding every tscc name it wraps.

bench/tracer.py patches the functions and methods in its TARGETS list
and puts them back afterwards; a name that no longer resolves stops
every traced benchmark run.  The bench files are only read here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import tscc
import tscc.cli  # noqa: F401  (the tracer patches every loaded tscc module)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer_under_test", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(module, attr):
    """(namespace owner, name) of a TARGETS entry: a module, or a class for Class.method."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def _snapshot(targets):
    """Every loaded tscc module namespace and every targeted class namespace, copied."""
    owners = [m for name, m in sys.modules.items()
              if name == "tscc" or name.startswith("tscc.")]
    owners += [_owner(module, attr)[0] for module, attr, _ in targets]
    return {id(owner): (owner, dict(vars(owner))) for owner in owners}


def test_tracer_wraps_every_target_and_restores_it():
    tracer_mod = _load_tracer()
    before = _snapshot(tracer_mod.TARGETS)
    tracer = tracer_mod.Tracer()
    tracer.install()  # raises if a target no longer resolves
    try:
        for module, attr, name in tracer_mod.TARGETS:
            owner, attr = _owner(module, attr)
            assert vars(owner)[attr] is not before[id(owner)][1][attr], name
        tscc.simulate(tscc.TimeCode(3, tscc.RsWom()), 10, seed=1)
        assert any(span[0] == "constructions.TimeCode.encode" for span in tracer.spans)
    finally:
        tracer.uninstall()
    after = _snapshot(tracer_mod.TARGETS)
    for key, (owner, names) in before.items():
        changed = [n for n, v in names.items() if after[key][1].get(n) is not v]
        assert not changed, (owner, changed)
