import numpy as np
import pytest

from wrp.jets import JetMap
from wrp.verify import generate_scenario


@pytest.fixture(scope="session")
def scenario0():
    return generate_scenario(0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class _Drifting(JetMap):
    """``base``, with every evaluation after the first one ulp further up
    than the one before: the bits a stale or corrupted evaluation cache
    would hand out."""

    def __init__(self, base: JetMap):
        super().__init__(base.domain, base.out_shape, base.max_order,
                         in_blocks=base.in_blocks, out_blocks=base.out_blocks)
        self.base, self.calls = base, 0

    def tensors(self, points, ell):
        t = np.array(self.base.tensors(points, ell))
        for _ in range(self.calls):
            t = np.nextafter(t, np.inf)
        self.calls += 1
        return t


@pytest.fixture
def drifting():
    """The class of maps whose bits move on every evaluation, for the
    controls of the bit-for-bit identity checks."""
    return _Drifting
