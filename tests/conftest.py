"""Shared fixtures: corpus triangulations, their cached relations, and a
record of the irreducibility sieve's verdicts."""

from __future__ import annotations

import pytest

from areapoly import groebner
from areapoly.corpus import relation_corpus
from areapoly.variety import parallelogram_polynomial, trapezoid_polynomial


@pytest.fixture(scope="session")
def corpus():
    """The five benchmark triangulations, keyed by name."""
    return relation_corpus()


@pytest.fixture(scope="session")
def trapezoid_relations(corpus):
    """Trapezoid relation per corpus key, eliminated once per session."""
    return {key: trapezoid_polynomial(tri) for key, tri in corpus.items()}


@pytest.fixture(scope="session")
def parallelogram_relations(corpus):
    """Parallelogram relation per corpus key, eliminated once per session."""
    return {key: parallelogram_polynomial(tri) for key, tri in corpus.items()}


@pytest.fixture
def sieve_verdicts(monkeypatch) -> list:
    """Every verdict of the irreducibility sieve, in call order."""
    verdicts = []
    sieve = groebner._sieve_irreducible

    def recorded(terms):
        verdicts.append(sieve(terms))
        return verdicts[-1]

    monkeypatch.setattr(groebner, "_sieve_irreducible", recorded)
    return verdicts
