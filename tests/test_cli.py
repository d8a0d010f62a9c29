import io
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegagroups.catalog import abelian_lie_f2, catalog_algebra, cyclic_ring, symmetric_group_3
from omegagroups import cli
from omegagroups.cli import dispatch, parse_algebra_file, serialize_algebra
from omegagroups.core import validate_algebra
from omegagroups.errors import OmegaZeroViolationError, ParseError
from reference import deep_terms, near_valid_terms


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = dispatch(argv)
    return code, buf.getvalue()


@pytest.fixture()
def ring_files(tmp_path):
    paths = {}
    for n in (3, 4):
        path = tmp_path / f"z{n}-ring.alg"
        path.write_text(serialize_algebra(cyclic_ring(n)))
        paths[n] = str(path)
    return paths


def test_round_trip_through_serializer(algebras):
    for algebra in algebras.values():
        text = serialize_algebra(algebra)
        again = parse_algebra_file(text)
        assert serialize_algebra(again) == text
        assert again.size == algebra.size and again.add == algebra.add


def test_parse_handles_comments_and_blank_lines():
    text = (
        "# cyclic group of order 2\n"
        "algebra tiny  # inline comment\n\n"
        "size 2\n"
        "add\n"
        "0 1\n"
        "1 0\n"
    )
    algebra = parse_algebra_file(text)
    assert algebra.size == 2 and algebra.kind == "group"


def test_parse_reports_short_section():
    text = "algebra broken\nsize 4\nadd\n0 1 2 3\n1 2 3 0\n2 3 0 1\n"
    with pytest.raises(ParseError) as err:
        parse_algebra_file(text)
    assert "line" in str(err.value)


def test_parse_surfaces_zero_violation():
    text = "algebra bad\nsize 2\nadd\n0 1\n1 0\nop f 1\n1 0\n"
    with pytest.raises(OmegaZeroViolationError):
        parse_algebra_file(text)


def test_ring_kind_inference_requires_laws(tmp_path):
    s3 = symmetric_group_3()
    lines = [serialize_algebra(s3).rstrip(), "op mul 2"]
    lines += [" ".join("0" for _ in range(6)) for _ in range(6)]
    parsed = parse_algebra_file("\n".join(lines) + "\n")
    assert parsed.kind == "raw"  # noncommutative addition: not a ring


def test_parse_validates_each_file_once(monkeypatch):
    from omegagroups import cli, core

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return validate_algebra(*args, **kwargs)

    monkeypatch.setattr(core, "validate_algebra", counted)  # read by as_ring
    monkeypatch.setattr(cli, "validate_algebra", counted)
    s3 = serialize_algebra(symmetric_group_3()).rstrip()
    not_a_ring = "\n".join([s3, "op mul 2"] + [" ".join("0" * 6)] * 6)
    files = {
        "group": (serialize_algebra(symmetric_group_3()), 1),
        "ring": (serialize_algebra(cyclic_ring(4)), 1),
        "raw": (serialize_algebra(abelian_lie_f2()), 1),
        "raw-mul": (not_a_ring + "\n", 2),  # ring laws fail: validated once more as raw
    }
    for kind, (text, validations) in files.items():
        calls.clear()
        algebra = parse_algebra_file(text)
        assert (algebra.kind, len(calls)) == (kind.split("-")[0], validations)


def test_check_equational_domain_exit_codes(ring_files):
    code, out = run_cli(["check", ring_files[3], "--property", "equational-domain"])
    assert code == 0 and "holds: true" in out
    code, out = run_cli(["check", ring_files[4], "--property", "equational-domain"])
    assert code == 1 and "witness: (2,2)" in out


def test_check_domain_witness_line(ring_files):
    code, out = run_cli(["check", ring_files[4], "--property", "domain"])
    assert code == 1
    assert "zero-divisors: (2,2)" in out


@pytest.mark.parametrize(
    "name, prop, code, stdout, stderr",
    [
        ("Z3-ring", "formula5", 0,
         "property: formula5\nholds: true\nmethod: two-sided-annihilating-pair\n", ""),
        ("M2(F2)-ring", "formula5", 1,
         "property: formula5\nholds: false\nmethod: two-sided-annihilating-pair\nwitness: (1,8)\n", ""),
        ("S3", "remark1", 0,
         "property: remark1\nholds: true\nconjugate-pair-set: 3,4\nsingle-conjugate-set: 3,4\n", ""),
        ("Z4-group", "remark1", 0,
         "property: remark1\nholds: true\nconjugate-pair-set: 1,2,3\nsingle-conjugate-set: 1,2,3\n", ""),
        ("S3", "formula5", 2, "", "error: NotARingError: S3 was not built as a ring\n"),
        ("Z3-ring", "remark1", 2, "",
         "error: NotAGroupError: Z3-ring has extra operations; expected a pure group\n"),
    ],
)
def test_check_formula5_and_remark1(tmp_path, name, prop, code, stdout, stderr):
    path = tmp_path / "algebra.alg"
    path.write_text(serialize_algebra(catalog_algebra(name)))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert dispatch(["check", str(path), "--property", prop]) == code
    assert (out.getvalue(), err.getvalue()) == (stdout, stderr)


def test_solve_lists_points_lexicographically(ring_files):
    code, out = run_cli(["solve", ring_files[3], "--vars", "2", "--eq", "mul(x1,x2)"])
    assert code == 0
    assert "count: 5" in out
    assert "points: 0,0;0,1;0,2;1,0;2,0" in out


def test_solve_accepts_equation_syntax(ring_files):
    code, out = run_cli(
        ["solve", ring_files[4], "--vars", "2", "--eq", "mul(x1,x2) = mul(x2,x1)"]
    )
    assert code == 0 and "count: 16" in out


def test_closure_command(ring_files):
    code, out = run_cli(
        ["closure", ring_files[4], "--vars", "2",
         "--points", "0,0;1,0;2,0;3,0;0,1;0,2;0,3"]
    )
    assert code == 0
    assert "added: 2,2" in out
    assert "algebraic: false" in out


def test_lattice_command(ring_files):
    code, out = run_cli(["lattice", ring_files[3]])
    assert code == 0
    assert "algebraic-set-count: 4" in out
    assert "distributive: true" in out


def test_validate_command(tmp_path, ring_files):
    code, out = run_cli(["validate", ring_files[3]])
    assert code == 0 and "kind: ring" in out
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra bad\nsize 2\nadd\n0 1\n1 1\n")
    code, out = run_cli(["validate", str(bad)])
    assert code == 1 and "valid: false" in out


def test_usage_and_guard_errors(ring_files, tmp_path):
    assert run_cli(["check", ring_files[3]])[0] == 2  # missing --property
    missing = str(tmp_path / "absent.alg")
    assert run_cli(["validate", missing])[0] == 2
    code, _ = run_cli(
        ["solve", ring_files[4], "--vars", "2", "--eq", "x1", "--max-points", "3"]
    )
    assert code == 2
    bad_term = run_cli(["solve", ring_files[3], "--vars", "2", "--eq", "mul(x1"])
    assert bad_term[0] == 2


def test_cached_parser_answers_as_fresh_ones(ring_files):
    """A failing parse leaves the one cached parser as it was built."""
    runs = [
        ["closure", ring_files[3], "--vars", "two", "--points", "1,1"],  # exit 2 in argparse
        ["closure", ring_files[3], "--vars", "2", "--points", "1,0;0,1"],
    ]

    def answers(fresh):
        out = []
        for argv in runs:
            if fresh:
                cli.build_parser.cache_clear()
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = dispatch(argv)
            out.append((code, stdout.getvalue(), stderr.getvalue()))
        return out

    cached = answers(fresh=False)
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _, _ in cached] == [2, 0] and cached[0][2]
    assert cached == answers(fresh=True)


def test_catalog_text_output_runs():
    code, out = run_cli(["catalog", "--max-zariski-size", "4"])
    assert code == 0
    assert "violations: 0" in out
    assert "algebra: M2(F2)-ring" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "{zero_arity}"],
        ["closure", "{ring}", "--vars", "2", "--points", "9,9"],
        ["solve", "{ring}", "--vars", "0", "--eq", "x1"],
        ["closure", "{ring4}", "--vars", "8000", "--points", ""],
        ["solve", "{ring4}", "--vars", "8000", "--eq", "x1"],
        ["solve", "{ring4}", "--vars", "1", "--eq", "(- " * 1200 + "x1" + ")" * 1200],
        ["solve", "{ring4}", "--vars", "1", "--eq", "mul(" * 800 + "x1" + ",x1)" * 800],
        ["validate", "{binary}"],
        ["check", "{binary}", "--property", "domain"],
        ["solve", "{binary}", "--vars", "1", "--eq", "x1"],
        ["closure", "{binary}", "--vars", "1", "--points", "0"],
        ["lattice", "{binary}"],
        ["validate", "{superscript}"],
        ["solve", "{ring4}", "--vars", "1", "--eq", "x\u00b2"],
    ],
    ids=["validate-zero-arity", "closure-point-off-carrier", "solve-zero-vars",
         "closure-huge-vars", "solve-huge-vars", "solve-deep-negation", "solve-deep-product",
         "validate-not-utf8", "check-not-utf8", "solve-not-utf8", "closure-not-utf8",
         "lattice-not-utf8", "validate-superscript-size", "solve-superscript-variable"],
)
def test_bad_input_exits_2_with_one_error_line(argv, ring_files, tmp_path):
    zero_arity = tmp_path / "zero-arity.alg"
    zero_arity.write_text("algebra u\nsize 2\nadd\n0 1\n1 0\nop u 0\n")
    binary = tmp_path / "binary.alg"  # a Z2 group file with one byte that is not UTF-8
    binary.write_bytes(b"algebra z2\nsize 2\nadd\n0 1\n1 0 \xff\n")
    superscript = tmp_path / "superscript.alg"  # a digit that int() cannot read
    superscript.write_text("algebra z2\nsize \u00b2\nadd\n0 1\n1 0\n", encoding="utf-8")
    rings = {"ring": ring_files[3], "ring4": ring_files[4]}
    files = {"zero_arity": zero_arity, "binary": binary, "superscript": superscript}
    args = [a.format(**files, **rings) for a in argv]
    done = subprocess.run(
        [sys.executable, "-m", "omegagroups.cli", *args], capture_output=True, text=True
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


FUZZ_BASES = [
    serialize_algebra(algebra).encode()
    for algebra in (cyclic_ring(3), symmetric_group_3(), abelian_lie_f2())
]
# Pieces of a valid file, bytes that are not UTF-8, and digits int() refuses or reads.
FUZZ_PIECES = [b"0", b"1", b"2", b"9", b"-1", b" ", b"\n", b"#", b"x", b"op f 1\n",
               b"op mul 2\n", b"size ", b"add\n", b"\xff", b"\xc3", "\u00b2".encode(),
               "\u0663".encode()]
FUZZ_PROPERTIES = ["domain", "anticommutative", "c-anticommutative", "formula5", "remark1"]


@st.composite
def near_valid_files(draw):
    """A catalog file with a few digits changed, or pieces inserted, replaced or deleted."""
    text = draw(st.sampled_from(FUZZ_BASES))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):  # a table entry changed: the file still parses
            at = draw(st.sampled_from([i for i, byte in enumerate(text) if byte in b"0123456789"]))
            text = text[:at] + bytes([draw(st.sampled_from(b"0123456789"))]) + text[at + 1:]
            continue
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        piece = draw(st.sampled_from(FUZZ_PIECES + [b""]))
        text = text[:at] + piece + text[at + cut:]
    return text


def answer(argv):
    """Exit code and stderr of one in-process run; an escaping exception fails the test."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = dispatch(argv)
    return code, stderr.getvalue()


@given(text=near_valid_files(), prop=st.sampled_from(FUZZ_PROPERTIES))
@settings(derandomize=True, max_examples=150, deadline=None)
def test_near_valid_files_exit_with_a_code_never_a_traceback(tmp_path_factory, text, prop):
    path = tmp_path_factory.mktemp("fuzz") / "near.alg"
    path.write_bytes(text)
    for argv in (["validate", str(path)], ["check", str(path), "--property", prop]):
        code, stderr = answer(argv)
        assert code in (0, 1, 2) and "Traceback" not in stderr
        assert code != 2 or stderr.startswith("error: ")


@pytest.fixture(scope="module")
def fuzz_rings(tmp_path_factory):
    folder = tmp_path_factory.mktemp("rings")
    paths = []
    for n in (3, 4):
        path = folder / f"z{n}-ring.alg"
        path.write_text(serialize_algebra(cyclic_ring(n)))
        paths.append(str(path))
    return paths


@given(
    points=st.text(alphabet="0123456789,;- .x\u00b2\u0663", max_size=16),
    n_vars=st.sampled_from(["1", "2", "0", "-1", "x"]),
)
@settings(derandomize=True, max_examples=150, deadline=None)
def test_point_strings_exit_with_a_code_never_a_traceback(fuzz_rings, points, n_vars):
    for ring in fuzz_rings:
        code, stderr = answer(["closure", ring, "--vars", n_vars, "--points", points])
        assert code in (0, 1, 2) and "Traceback" not in stderr


@given(text=st.one_of(near_valid_terms(), deep_terms()), n_vars=st.sampled_from(["1", "2"]))
@example(text="x\u00b2", n_vars="1")
@example(text="mul(x1\u00b2,x1)", n_vars="2")
@example(text="x\u0661 = \u0660", n_vars="1")
@settings(derandomize=True, max_examples=150, deadline=None)
def test_term_texts_exit_with_a_code_never_a_traceback(fuzz_rings, text, n_vars):
    for ring in fuzz_rings:
        code, stderr = answer(["solve", ring, "--vars", n_vars, f"--eq={text}"])  # a text may start with -
        assert code in (0, 1, 2) and "Traceback" not in stderr
        assert code != 2 or stderr.startswith("error: ")
