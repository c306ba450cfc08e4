"""Session setup shared by every test module."""
import warnings


def pytest_configure(config):
    # When a property test fails, hypothesis's pytest plugin imports
    # hypothesis.extra._patching, which imports libcst, which makes
    # mypy_extensions warn with a DeprecationWarning. Under this suite's
    # error::DeprecationWarning filter that warning would abort the whole
    # session with an INTERNALERROR. Import the module once here with the
    # warning silenced, so a failing property test reports FAILED and the
    # session goes on. The filter still holds for everything else.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            import hypothesis.extra._patching  # noqa: F401
        except ImportError:
            pass
