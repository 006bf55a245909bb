import pytest

from wittram import build_extension, linalg


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
def all_extensions(gaussian, sqrt2, cyclo):
    return (gaussian, sqrt2, cyclo)



@pytest.fixture
def howell_calls(monkeypatch):
    """The argument tuples of every ``linalg.howell_form`` call made after
    the fixture is set up."""
    calls = []
    howell = linalg.howell_form

    def counting(*args, **kwargs):
        calls.append(args)
        return howell(*args, **kwargs)

    monkeypatch.setattr(linalg, "howell_form", counting)
    return calls
