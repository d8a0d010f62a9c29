import pytest

from omegagroups.catalog import (
    build_catalog,
    catalog_algebra,
    classify_algebra,
    run_classification,
)


def test_catalog_covers_required_algebras(catalog):
    names = {entry.name for entry in catalog}
    required = {
        "Z2-group", "Z3-group", "Z4-group", "V4-group", "S3", "D4", "Q8",
        "Z2-ring", "Z3-ring", "Z4-ring", "Z5-ring", "Z6-ring", "F4-ring",
        "F2[t]/(t2)-ring", "M2(F2)-ring", "null-ring-4",
        "abelian-lie-4", "heisenberg-lie-8", "sl2-f2",
    }
    assert required <= names
    assert sum(1 for e in catalog if e.algebra.size <= 8) >= 12


def test_catalog_entries_validated_and_tagged(catalog):
    for entry in catalog:
        algebra = entry.algebra
        assert algebra.size >= 2
        for prop, (value, provenance) in entry.expected.items():
            assert isinstance(value, bool)
            assert provenance in ("known", "computed")


def test_expected_classifications_z3_ring():
    entry = next(e for e in build_catalog() if e.name == "Z3-ring")
    for prop in ("domain", "anticommutative", "c-anticommutative", "equational-domain"):
        assert entry.expected[prop][0] is True


def test_expected_classifications_s3():
    entry = next(e for e in build_catalog() if e.name == "S3")
    for prop in ("domain", "anticommutative", "c-anticommutative", "equational-domain"):
        assert entry.expected[prop][0] is False


def test_expected_classifications_z2_group():
    entry = next(e for e in build_catalog() if e.name == "Z2-group")
    assert entry.expected["abelian"][0] is True
    assert entry.expected["equational-domain"][0] is False


def test_full_run_has_no_violations():
    report = run_classification()
    assert report.violations == []
    assert len(report.algebras) == 19


def test_classification_takes_no_entries():
    with pytest.raises(TypeError):
        run_classification(entries=[])


def test_matrix_ring_skips_zariski_by_default():
    entry = next(e for e in build_catalog() if e.name == "M2(F2)-ring")
    cls = classify_algebra(entry)
    ed = cls.properties["equational-domain"]
    assert ed.value is None and "guard exceeded" in ed.skipped
    assert cls.properties["domain"].value is True
    assert cls.properties["formula5"].value is False


def test_equivalence_columns_match_where_computed():
    report = run_classification()
    for cls in report.algebras:
        values = {k: v.value for k, v in cls.properties.items() if v.value is not None}
        if "equational-domain" in values:
            assert values["equational-domain"] == values["c-anticommutative"], cls.name
        assert values["domain"] == values["anticommutative"], cls.name
        if "formula5" in values:
            assert values["formula5"] == values["c-anticommutative"], cls.name


def test_report_serialization_is_plain_data():
    import json

    report = run_classification(max_zariski_size=4)
    payload = json.dumps(report.to_dict(), sort_keys=True)
    assert "Z4-ring" in payload


def test_catalog_algebra_lookup():
    assert catalog_algebra("Q8").size == 8
    try:
        catalog_algebra("nope")
    except KeyError:
        pass
    else:
        raise AssertionError("missing name should raise KeyError")
