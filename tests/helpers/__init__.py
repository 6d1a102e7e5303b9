"""Shared test fixtures: fault injection (:mod:`helpers.faults`), random
CPGs and multi-run stores (:mod:`helpers.random_cpgs`), run-fleet
scaffolding (:mod:`helpers.fleet`) and slow reference oracles for the
fast paths (:mod:`helpers.oracles`)."""
