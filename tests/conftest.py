import pytest

from overheat import BathPair, CircuitParams


@pytest.fixture
def circuit():
    """Reference circuit: M=1, L=2, omega_c=5, omega_d=1, gamma=1e4."""
    return CircuitParams(R=2.0, L=2.0, C=5e-5, M=1.0, omega_c=5.0)


@pytest.fixture
def scales(circuit):
    return circuit.scales


@pytest.fixture
def baths():
    return BathPair.from_temperatures(2.0, 1.0)
