import pytest

from specker.boolalg import BoolElem, make_algebra
from specker.orthogonal import orth_normalize


@pytest.fixture
def b2():
    return make_algebra(["x"])


@pytest.fixture
def b4():
    return make_algebra(["p", "q"])


@pytest.fixture
def b8():
    return make_algebra(["a", "b", "c"])


@pytest.fixture
def s_elem(b4):
    """The running-example element 2p (values 2 on p, 0 on q)."""
    return orth_normalize(b4, [(2, b4.atom("p")), (0, b4.atom("q"))])


@pytest.fixture
def t_elem(b4):
    """The running-example element 1 + 2p (values 3 on p, 1 on q)."""
    return orth_normalize(b4, [(3, b4.atom("p")), (1, b4.atom("q"))])


@pytest.fixture
def built(monkeypatch):
    """A one-item list holding the number of ``BoolElem``s built so far;
    ``BoolElem.__post_init__`` runs once per element built."""
    count = [0]
    original = BoolElem.__post_init__

    def counted(elem):
        count[0] += 1
        original(elem)

    monkeypatch.setattr(BoolElem, "__post_init__", counted)
    return count
