import sys
from pathlib import Path

import pytest

from wittram import extensions, linalg
from wittram.extensions import build_extension, load_spec_file

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
def rebuilds(monkeypatch):
    """The precisions of every extension rebuilt (``_twin``) after the
    fixture is set up, counted where ``_twin`` calls
    ``extensions.build_extension`` (a test's own imported ``build_extension``
    is not counted); build the extension under test fresh, so that no cache
    holds its twins."""
    built = []
    build = extensions.build_extension

    def counting(spec, precision=None):
        built.append(precision)
        return build(spec, precision)

    monkeypatch.setattr(extensions, "build_extension", counting)
    return built


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
