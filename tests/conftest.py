import pytest

from semikit import gen_standard
from semikit.corpus import census, gen_transformation_closure


@pytest.fixture(scope="session")
def census4():
    """All 218 semigroups of order <= 4 up to isomorphism."""
    return census(4)


@pytest.fixture(scope="session")
def census5():
    """All 2,133 semigroups of order <= 5 up to isomorphism."""
    return census(5)


@pytest.fixture(scope="session")
def seeded_closures():
    """48 seeded transformation semigroups of degree 2 to 4, one or two maps."""
    return [
        gen_transformation_closure(degree, maps, seed)
        for degree in (2, 3, 4) for maps in (1, 2) for seed in range(8)
    ]


@pytest.fixture(scope="session")
def oracle_instances(census4):
    """The order-<=4 census plus seeded transformation semigroups: the
    instances on which fast paths are checked against their oracles."""
    return list(census4) + [gen_transformation_closure(4, 2, s) for s in range(5)]


@pytest.fixture
def z3():
    return gen_standard("cyclic", 3)


@pytest.fixture
def l2():
    return gen_standard("left_zero", 2)


@pytest.fixture
def t2():
    return gen_standard("t2")


@pytest.fixture
def pb():
    return gen_standard("paper_band")


@pytest.fixture
def rb22():
    return gen_standard("rect_band", 2, 2)


@pytest.fixture
def trivial():
    return gen_standard("trivial")
