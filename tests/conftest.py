"""Session setup shared by every test module.

hypothesis reports a failing example through hypothesis.extra._patching,
which imports libcst; some libcst versions warn with a DeprecationWarning
on import.  Under -W error that warning would end the whole session from
inside the reporter, so the module is imported here once with that one
warning ignored.  Every other warning stays an error.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
