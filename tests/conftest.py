import pytest

import lem.simulate


@pytest.fixture()
def one_blas_thread():
    """Run the test on one BLAS thread, as a ``lem`` command leaves its process,
    and give the process its thread counts back afterwards, so that no later
    test inherits the command's setting."""
    restore = lem.simulate._one_blas_thread()
    yield
    restore()
