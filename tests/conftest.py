import pytest

from modext import enumerate_flats
from modext.corpus import corpus_matroid, corpus_names

from oracles import reference_lattice


@pytest.fixture(scope="session")
def corpus():
    """name -> (matroid, lattice), built once per test run."""
    cache = {}

    def get(name):
        if name not in cache:
            m = corpus_matroid(name)
            cache[name] = (m, enumerate_flats(m))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def reference():
    """name -> `reference_lattice` of the corpus member, built once per
    test run."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = reference_lattice(corpus_matroid(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def all_corpus_names():
    return corpus_names()
