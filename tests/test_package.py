import importlib

import pytest

import k3scan
import k3scan.classify
import k3scan.isometry


def test_every_public_name_is_its_modules_object():
    for name in k3scan.__all__:
        obj = getattr(k3scan, name)
        module = obj.__module__
        assert module.startswith("k3scan.") and module != "k3scan.cli", (name, module)
        assert getattr(importlib.import_module(module), name) is obj, name


def test_dir_lists_public_names():
    assert set(k3scan.__all__) <= set(dir(k3scan))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        k3scan.no_such_name
    assert not hasattr(k3scan, "theta")


def test_identify_type_lives_in_isometry():
    assert k3scan.classify.identify_type is k3scan.isometry.identify_type
    assert k3scan.identify_type is k3scan.isometry.identify_type
    assert k3scan.identify_type.__module__ == "k3scan.isometry"
