import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

try:
    from hypothesis import settings
except ImportError:     # the property tests then fail to collect on their own
    pass
else:
    # the same examples on every run: no random seed, no example database
    settings.register_profile("deterministic", derandomize=True,
                              database=None)
    settings.load_profile("deterministic")
