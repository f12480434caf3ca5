import json
from importlib import resources

import pytest

from helpers import sieve_presets

from k3scan.cone import vinberg_sieve
from k3scan.presets import catalog


@pytest.fixture(scope="session")
def presets():
    return catalog()


@pytest.fixture(scope="session")
def curve_systems(presets):
    out = {}
    for name in sieve_presets():
        p = presets[name]
        out[name] = vinberg_sieve(p.lattice, p.ample, 10)
    return out


def load_package_json(name):
    return json.loads(resources.files("k3scan").joinpath(name).read_text())


@pytest.fixture(scope="session")
def errata():
    return load_package_json("errata.json")["entries"]


@pytest.fixture(scope="session")
def golden_series():
    tables = {}
    for name in sieve_presets():
        doc = load_package_json(f"golden/{name}_theta.json")
        tables[(name, "theta")] = doc
    tables[("S2", "xi")] = load_package_json("golden/S2_xi.json")
    return tables
