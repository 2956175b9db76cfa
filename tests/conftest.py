"""Shared test settings: the one hypothesis profile every property test runs
under, and a check that no test leaves a thread or a child process behind.

Examples are derived from each test's name, not drawn at random, and no
example database is kept, so a run is reproducible. Hypothesis still caches
what it reads from source files in its storage directory, `.hypothesis/` in
the working directory by default; that goes to the system temporary
directory instead, so a run writes nothing into the repository.
"""

import multiprocessing
import tempfile
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile(
    "sparsemix", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("sparsemix")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "sparsemix-hypothesis")

# threads alive before any test module imports sparsemix
THREADS_AT_START = threading.active_count()


@pytest.fixture(autouse=True)
def leaves_no_thread_or_child():
    # every parallel part of sparsemix lives only inside the call that starts it
    yield
    assert threading.active_count() <= THREADS_AT_START, threading.enumerate()
    assert not multiprocessing.active_children()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    # To report a failing example, hypothesis' pytest plugin imports libcst,
    # whose import trips mypy_extensions' TypedDict deprecation; under
    # filterwarnings = error that ends the run with an internal error in
    # place of the failure. Import it first, with that one warning ignored.
    hypothesis_test = getattr(getattr(item, "obj", None), "is_hypothesis_test", False)
    if call.excinfo is not None and hypothesis_test:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
            )
            import hypothesis.extra._patching  # noqa: F401
