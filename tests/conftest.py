import os

import hypothesis

hypothesis.settings.register_profile(
    "fast", max_examples=25, deadline=None
)
hypothesis.settings.register_profile(
    "thorough", max_examples=200, deadline=None
)
# HYPOTHESIS_PROFILE=thorough runs each property 200 times
hypothesis.settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))
