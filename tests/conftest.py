"""Turn a leaked socket or a failed worker thread into a test failure for
the tests in this directory.

An unclosed socket emits ``ResourceWarning`` when it is collected, often
inside ``__del__``, where pytest reports it as an unraisable exception. An
exception that escapes a thread's target is otherwise only printed. All
three become errors here, but only for the items under ``tests/``, so other
suites that share the rootdir configuration keep the default filters.
"""

from pathlib import Path

import pytest

_HERE = Path(__file__).parent
_LEAK_FILTERS = (
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning"),
)


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            for mark in _LEAK_FILTERS:
                item.add_marker(mark)
