import os

# One BLAS thread, as bench/run.py sets it, before anything imports numpy: the
# batched route's small float32 products are noisy on a thread pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest  # noqa: E402

from omegagroups.catalog import build_catalog  # noqa: E402


@pytest.fixture(scope="session")
def catalog():
    return build_catalog()


@pytest.fixture(scope="session")
def algebras(catalog):
    return {entry.name: entry.algebra for entry in catalog}


@pytest.fixture(scope="session")
def small_algebras(algebras):
    """Catalog algebras within the exhaustive-scan guard."""
    return {name: a for name, a in algebras.items() if a.size <= 8}
