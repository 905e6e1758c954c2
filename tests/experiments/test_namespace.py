"""``repro.experiments`` resolves its names lazily, and completely."""

import importlib

import pytest

import repro.experiments as ex


def test_every_name_is_its_submodule_object():
    for module, names in ex._EXPORTS.items():
        sub = importlib.import_module(f"repro.experiments.{module}")
        for name in names:
            assert getattr(ex, name) is getattr(sub, name), name


def test_each_name_has_one_owner():
    assert sum(map(len, ex._EXPORTS.values())) == len(ex.__all__)
    assert "scheduler_ablation" in ex.__all__


def test_dir_lists_every_name():
    assert set(ex.__all__) <= set(dir(ex))


def test_star_import_binds_every_name():
    scope = {}
    exec("from repro.experiments import *", scope)
    assert set(ex.__all__) <= set(scope)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'repro.experiments'.*'nope'"):
        ex.nope
    assert not hasattr(ex, "nope")

