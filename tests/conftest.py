import pytest

from spheroid import Grid, Rate, RateModel, default_model, solve_stationary


@pytest.fixture(scope="session")
def model():
    return default_model()


@pytest.fixture(scope="session")
def grid201():
    return Grid(201)


@pytest.fixture(scope="session")
def grid401():
    return Grid(401)


@pytest.fixture(scope="session")
def stationary201(model, grid201):
    # shared by evolution/analysis tests; the cross-check adds about 0.1 s
    return solve_stationary(model, grid201, tol=1e-6, cross_check=True)


@pytest.fixture(scope="session")
def stationary401(model, grid401):
    return solve_stationary(model, grid401, tol=1e-6, cross_check=True)


def make_model(**overrides):
    """Default model with selected rates replaced (testing helper)."""
    import dataclasses
    return dataclasses.replace(default_model(), **overrides)


def zero_rate():
    return Rate("constant", {"value": 0.0})


def all_zero_model():
    z = zero_rate()
    return RateModel(F=z, K_B=z, K_P=z, K_Q=z, K_D=z)
