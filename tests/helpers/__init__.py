"""Shared test fixtures: fault injection (:mod:`helpers.faults`), cluster
builders (:mod:`helpers.clusters`) and slow reference oracles for the
fast paths (:mod:`helpers.oracles`)."""
