"""The one Hypothesis profile of the property tests: derandomized, so every
run draws the same examples, with no example database and no deadline."""

from hypothesis import settings

settings.register_profile("kopelcas", derandomize=True, database=None, max_examples=60,
                          deadline=None)
settings.load_profile("kopelcas")
