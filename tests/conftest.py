import pytest

from golden_digests import run_verify


@pytest.fixture(scope="session")
def verify_report(tmp_path_factory):
    """One `bridgelab verify` run at the default power(0.8) config, shared by every test that reads it."""
    return run_verify(tmp_path_factory.mktemp("verify"))
