"""Suite-wide test settings.

Every Hypothesis test draws the same examples on every run
(``derandomize``: the draws are seeded from the test itself), so whether the
suite passes never depends on what a run happens to draw. Each test keeps
its own ``max_examples`` and ``@example``s.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
