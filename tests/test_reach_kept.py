"""The exemptions of ``tools/reach.py``'s per-function rule, checked
without tracing: every ``KEPT`` row names a function that exists in
``src/repro``, is not an abstract declaration, and gives one of the four
reasons. A stale row fails here in seconds."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location(
        "reach", os.path.join(ROOT, "tools", "reach.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_four_reasons(reach):
    assert sorted(reach.REASONS) == [
        "bench", "claim", "reference", "untriggerable",
    ]


def test_every_kept_row_names_a_concrete_function(reach):
    assert reach.KEPT
    for (module, name), reason in reach.KEPT.items():
        path = os.path.join(ROOT, "src", module)
        assert os.path.isfile(path), module
        funcs = {f["name"]: f for f in reach.functions_of(path)}
        assert name in funcs, f"{module}:{name}"
        assert not funcs[name]["abstract"], f"{module}:{name}"
        assert reason in reach.REASONS, f"{module}:{name}: {reason}"
