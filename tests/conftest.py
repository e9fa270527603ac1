import hypothesis

hypothesis.settings.register_profile(
    "suite", max_examples=60, deadline=None, derandomize=True
)
# A long randomized search, for a run such as
#   pytest tests/test_mobility.py -k Loader --hypothesis-profile=deep
# Hypothesis loads the named profile after this file is imported, so it
# replaces "suite" for that run.
hypothesis.settings.register_profile("deep", max_examples=3000, deadline=None)
hypothesis.settings.load_profile("suite")
