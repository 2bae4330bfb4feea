"""Suite-wide settings.  Hypothesis draws its examples from a fixed seed
(``derandomize=True``) and keeps no example database (``database=None``),
so which examples a run tries depends on the tree alone."""

from hypothesis import settings

settings.register_profile("tree", derandomize=True, database=None)
settings.load_profile("tree")
