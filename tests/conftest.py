import sys
from pathlib import Path

import pytest

from wittram import linalg
from wittram.extensions import build_extension, load_spec_file
from wittram.rings import Tower

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def gaussian():
    return build_extension("quadratic-gaussian")


@pytest.fixture(scope="session")
def sqrt2():
    return build_extension("quadratic-sqrt2")


@pytest.fixture(scope="session")
def sqrt2_hi():
    # precision clears the guard for length-3 Witt vectors (m = 2)
    return build_extension("quadratic-sqrt2", precision=48)


@pytest.fixture(scope="session")
def cyclo():
    return build_extension("cyclotomic-step")


@pytest.fixture(scope="session")
def cyclo7():
    # the benchmark's rank-42 extension (cyclotomic-step at p = 7)
    return build_extension(load_spec_file(str(ROOT / "wittbench" / "cyclo7.json")))


@pytest.fixture(scope="session")
def all_extensions(gaussian, sqrt2, cyclo):
    return (gaussian, sqrt2, cyclo)


@pytest.fixture
def lifts(monkeypatch):
    """The precisions of every new ``Tower.lift`` (one its tower did not
    keep yet) made after the fixture is set up; build the extension under
    test fresh, so that its tower keeps no lift from an earlier test."""
    made = []
    lift = Tower.lift

    def counting(self, N):
        if N not in self._lifts:
            made.append(N)
        return lift(self, N)

    monkeypatch.setattr(Tower, "lift", counting)
    return made


@pytest.fixture
def howell_calls(monkeypatch):
    """The argument tuples of every ``linalg.howell_form`` call made after
    the fixture is set up, through any name bound to it: every ``wittram``
    module attribute holding the function is rebound, so a call through a
    name imported by value is counted too."""
    calls = []
    howell = linalg.howell_form

    def counting(*args, **kwargs):
        calls.append(args)
        return howell(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "wittram" or name.startswith("wittram.")):
            for attr, obj in list(vars(module).items()):
                if obj is howell:
                    monkeypatch.setattr(module, attr, counting)
    return calls
