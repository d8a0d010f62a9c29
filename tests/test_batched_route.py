"""The batched membership-matrix route of the domain predicates against the
per-seed route it replaces where it applies.

Patching closures.BATCH_CELLS to 0 sends every closure and every pair
question through the per-seed route (one ``_close`` per element, one
``_commutator_scan`` per pair), which is how the predicates were computed
before the batched route existed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegagroups import closures
from omegagroups.catalog import build_catalog, cyclic_ring, matrix_ring_m2_f2
from omegagroups.cli import serialize_algebra
from omegagroups.closures import enumerate_omega_subgroups
from omegagroups.core import direct_product, validate_algebra
from omegagroups.domains import is_anticommutative, is_c_anticommutative, is_domain

from test_cli import run_cli
from test_closure_oracle import sparse_algebras, ternary_algebra

CATALOG = {entry.name: entry.algebra for entry in build_catalog()}
PREDICATES = (is_domain, is_anticommutative, is_c_anticommutative)
SMALL_PRODUCT_PAIRS = sorted(
    (left, right)
    for left, h1 in CATALOG.items()
    for right, h2 in CATALOG.items()
    if h1.signature == h2.signature and h1.size * h2.size <= 32
)


def decided(algebra, subset=None):
    """(verdict, method, witness) of each predicate; is_anticommutative alone
    inside a subset."""
    if subset is not None:
        calls = [lambda: is_anticommutative(algebra, subset)]
    else:
        calls = [lambda predicate=predicate: predicate(algebra) for predicate in PREDICATES]
    return [(v.verdict, v.method, v.witness) for v in (call() for call in calls)]


def per_seed(monkeypatch, *args):
    with monkeypatch.context() as patch:
        patch.setattr(closures, "BATCH_CELLS", 0)
        return decided(*args)


@pytest.fixture()
def counted(monkeypatch):
    """Calls of closures._close and closures._commutator_scan, by name."""
    calls = {"_close": 0, "_commutator_scan": 0}
    for name in calls:
        original = getattr(closures, name)

        def counting(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(closures, name, counting)
    return calls


def test_batched_route_matches_the_per_seed_route_on_the_catalog(monkeypatch):
    one = validate_algebra("trivial", 1, [0])
    for algebra in [*CATALOG.values(), one]:
        assert decided(algebra) == per_seed(monkeypatch, algebra), algebra.name


@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.sampled_from(SMALL_PRODUCT_PAIRS))
def test_batched_route_matches_the_per_seed_route_on_products(pair):
    algebra, _, _ = direct_product(CATALOG[pair[0]], CATALOG[pair[1]])
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert decided(algebra) == per_seed(monkeypatch, algebra), pair


def test_batched_route_matches_the_per_seed_route_on_m2_f2_times_z2(monkeypatch):
    algebra, _, _ = direct_product(matrix_ring_m2_f2(), cyclic_ring(2))
    assert decided(algebra) == per_seed(monkeypatch, algebra)


def test_batched_route_matches_the_per_seed_route_inside_subgroups(monkeypatch):
    for algebra in CATALOG.values():
        if algebra.size > 8:
            continue
        for subgroup in enumerate_omega_subgroups(algebra):
            expected = per_seed(monkeypatch, algebra, subgroup)
            assert decided(algebra, subgroup) == expected, (algebra.name, sorted(subgroup))


def test_catalog_algebras_take_the_batched_route(counted):
    for algebra in CATALOG.values():
        decided(algebra)
    assert counted == {"_close": 0, "_commutator_scan": 0}


def test_other_algebras_take_the_per_seed_route(counted):
    for algebra in [ternary_algebra(), *sparse_algebras(4, seed=2024)]:
        assert not closures._batched(algebra, algebra.size)
        counted["_close"] = 0
        decided(algebra)
        assert counted["_close"] > 0, algebra.name


@pytest.fixture()
def product_files(tmp_path):
    paths = []
    for left, right in ((cyclic_ring(4), cyclic_ring(4)), (matrix_ring_m2_f2(), cyclic_ring(2))):
        algebra, _, _ = direct_product(left, right)
        path = tmp_path / f"{algebra.name}.alg"
        path.write_text(serialize_algebra(algebra))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("prop", ["domain", "anticommutative", "c-anticommutative"])
def test_check_prints_the_same_bytes_on_both_routes(monkeypatch, product_files, prop):
    for path in product_files:
        batched = run_cli(["check", path, "--property", prop])
        with monkeypatch.context() as patch:
            patch.setattr(closures, "BATCH_CELLS", 0)
            assert run_cli(["check", path, "--property", prop]) == batched, path


def test_catalog_prints_the_same_bytes_on_both_routes(monkeypatch):
    batched = run_cli(["catalog"])
    monkeypatch.setattr(closures, "BATCH_CELLS", 0)
    assert run_cli(["catalog"]) == batched
