import importlib
import json
import os
import subprocess
import sys

import pytest

import hirzebruch


def test_every_public_name_is_the_object_its_submodule_defines():
    for name in hirzebruch.__all__:
        obj = getattr(hirzebruch, name)
        if name in ("__version__", "InvariantError"):
            continue
        assert obj.__module__.startswith("hirzebruch."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_invariant_error_is_one_class():
    from hirzebruch import ale, localization

    assert localization.InvariantError is hirzebruch.InvariantError
    assert ale.InvariantError is hirzebruch.InvariantError


def test_dir_lists_every_public_name():
    names = dir(hirzebruch)
    assert "__all__" in names
    assert set(hirzebruch.__all__) <= set(names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        hirzebruch.no_such_name
    assert not hasattr(hirzebruch, "no_such_name")


def test_an_ale_point_has_no_record_class():
    # enumerate_colored_fixed_points yields plain tuples of ColoredDiagrams
    from hirzebruch import ale

    assert "ColoredFixedPoint" not in hirzebruch.__all__
    for module in (hirzebruch, ale):
        with pytest.raises(AttributeError):
            module.ColoredFixedPoint


def test_import_loads_no_submodule_until_a_name_is_used():
    code = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'hirzebruch')\n"
        "import hirzebruch\n"
        "first = loaded()\n"
        "from hirzebruch import poincare_polynomial\n"
        "second = loaded()\n"
        "from hirzebruch import ale\n"
        "print(json.dumps([first, second, 'hirzebruch.ale' in loaded()]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hirzebruch.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    first, second, ale_loaded = json.loads(done.stdout)
    assert first == ["hirzebruch"]
    assert "hirzebruch.counting" in second and "hirzebruch.ale" not in second
    assert ale_loaded


def test_a_loaded_submodule_is_read_without_the_import_system(monkeypatch):
    from hirzebruch import counting

    calls = []
    monkeypatch.setattr(importlib, "import_module", lambda *args: calls.append(args))
    assert hirzebruch.poincare_polynomial is counting.poincare_polynomial
    # each read still finds the submodule's current binding
    monkeypatch.setattr(counting, "poincare_polynomial", "rebound")
    assert hirzebruch.poincare_polynomial == "rebound"
    assert calls == []
