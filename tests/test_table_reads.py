"""The array reads of core, terms and domains against the scalar loops they replaced.

Each reference below walks the tuple tables one entry at a time through
add_of, neg_of and op, in the order the library once did, so every table,
verdict, first failure and message must come out the same.
"""

import random
from itertools import product as iproduct

import pytest

from omegagroups.catalog import build_catalog, cyclic_group, cyclic_ring, symmetric_group_3
from omegagroups.core import (
    FiniteOmegaGroup,
    as_lie_ring,
    direct_product,
    homomorphism,
    validate_algebra,
)
from omegagroups.domains import group_zero_divisor_sets, ring_satisfies_formula5
from omegagroups.errors import (
    AlgebraError,
    ArityMismatchError,
    InvalidArgumentError,
    LawViolationError,
    MalformedTableError,
    NotAGroupError,
    UnboundVariableError,
    UnknownOperationError,
)
from omegagroups.terms import (
    ZERO,
    Add,
    Neg,
    Op,
    Var,
    eval_term,
    is_commutator_word,
    omega_commutator,
    random_term,
)


def outcome(build, *args):
    """(error type, message) of a failed call, or its result."""
    try:
        return build(*args)
    except AlgebraError as exc:
        return type(exc).__name__, str(exc)


# --- references ---------------------------------------------------------------


def ref_product_tables(h1, h2):
    """add, neg and the extra tables of h1 x h2, pairs (a, b) encoded as a * |h2| + b."""
    n1, n2 = h1.size, h2.size
    size = n1 * n2

    def enc(a, b):
        return a * n2 + b

    add = [0] * (size * size)
    for a1, b1 in iproduct(range(n1), range(n2)):
        for a2, b2 in iproduct(range(n1), range(n2)):
            add[enc(a1, b1) * size + enc(a2, b2)] = enc(h1.add_of(a1, a2), h2.add_of(b1, b2))
    neg = [enc(h1.neg_of(x // n2), h2.neg_of(x % n2)) for x in range(size)]
    omega = []
    for op in h1.omega:
        table = []
        for args in iproduct(range(size), repeat=op.arity):
            firsts = tuple(x // n2 for x in args)
            seconds = tuple(x % n2 for x in args)
            table.append(enc(h1.op(op.name, *firsts), h2.op(op.name, *seconds)))
        omega.append((op.name, op.arity, tuple(table)))
    return tuple(add), tuple(neg), omega


def ref_homomorphism(source, target, mapping):
    """The preservation loops, add then neg then each operation, row-major."""
    m = tuple(mapping)
    if m[0] != 0:
        raise LawViolationError("mapping does not send 0 to 0")
    for a in range(source.size):
        for b in range(source.size):
            if m[source.add_of(a, b)] != target.add_of(m[a], m[b]):
                raise LawViolationError(f"mapping breaks add at ({a},{b})")
    for a in range(source.size):
        if m[source.neg_of(a)] != target.neg_of(m[a]):
            raise LawViolationError(f"mapping breaks neg at {a}")
    for op in source.omega:
        for args in iproduct(range(source.size), repeat=op.arity):
            if m[source.op(op.name, *args)] != target.op(op.name, *(m[a] for a in args)):
                raise LawViolationError(f"mapping breaks {op.name} at {args}")
    return m


def ref_identity_and_neg(name, size, add):
    """The identity scan, then the first two-sided inverse of each element."""
    for a in range(size):
        if add[a] != a or add[a * size] != a:
            raise NotAGroupError(f"{name}: index 0 is not a two-sided identity at element {a}")
    neg = [-1] * size
    for a in range(size):
        for b in range(size):
            if add[a * size + b] == 0 and add[b * size + a] == 0:
                neg[a] = b
                break
        if neg[a] < 0:
            raise NotAGroupError(f"{name}: element {a} has no two-sided inverse")
    return tuple(neg)


def ref_eval_term(algebra, t, point):
    if t == ZERO:
        return 0
    if isinstance(t, Var):
        if t.index > len(point):
            raise UnboundVariableError(f"x{t.index} not covered by a {len(point)}-tuple")
        return point[t.index - 1]
    if isinstance(t, Neg):
        return algebra.neg_of(ref_eval_term(algebra, t.child, point))
    if isinstance(t, Add):
        return algebra.add_of(ref_eval_term(algebra, t.left, point),
                              ref_eval_term(algebra, t.right, point))
    table = algebra.operation(t.name)
    if len(t.args) != table.arity:
        raise ArityMismatchError(f"{t.name}: expected {table.arity} arguments, got {len(t.args)}")
    return algebra.op(t.name, *(ref_eval_term(algebra, a, point) for a in t.args))


def ref_group_zero_divisor_sets(algebra):
    n = algebra.size
    conjugates = {a: sorted({algebra.conjugate(a, g) for g in range(n)}) for a in range(n)}

    def both_classes_commute(a, b):
        return all(algebra.group_commutator(x, y) == 0
                   for x in conjugates[a] for y in conjugates[b])

    def class_commutes_with(a, b):
        return all(algebra.group_commutator(x, b) == 0 for x in conjugates[a])

    set_pair = frozenset(a for a in range(1, n)
                         if any(both_classes_commute(a, b) for b in range(1, n)))
    set_single = frozenset(a for a in range(1, n)
                           if any(class_commutes_with(a, b) for b in range(1, n)))
    return set_pair, set_single


def ref_formula5_pair(algebra):
    n = algebra.size
    for x in range(1, n):
        for y in range(1, n):
            if algebra.op("mul", x, y) == 0 and algebra.op("mul", y, x) == 0:
                return {"x": x, "y": y}
    return None


# --- algebras -----------------------------------------------------------------


@pytest.fixture(scope="module")
def by_signature():
    groups = {}
    for entry in build_catalog():
        groups.setdefault(entry.algebra.signature, []).append(entry.algebra)
    return groups


def ternary(n, name=None):
    """Z_n with t(x, y, z) = x*y + z*z*x mod n, a ternary operation fixing (0, 0, 0)."""
    add = [(a + b) % n for a in range(n) for b in range(n)]
    table = [(x * y + z * z * x) % n for x in range(n) for y in range(n) for z in range(n)]
    return validate_algebra(name or f"Z{n}-t", n, add, [("t", 3, table)])


def relabel(add, rng):
    """A binary table under a random relabelling of its elements that fixes 0."""
    n = round(len(add) ** 0.5)
    perm = [0] + rng.sample(range(1, n), n - 1)
    out = [0] * (n * n)
    for a in range(n):
        for b in range(n):
            out[perm[a] * n + perm[b]] = perm[add[a * n + b]]
    return out


# --- direct_product -----------------------------------------------------------


def assert_product_matches(h1, h2):
    prod, proj1, proj2 = direct_product(h1, h2)
    add, neg, omega = ref_product_tables(h1, h2)
    assert (prod.name, prod.size) == (f"{h1.name}x{h2.name}", h1.size * h2.size)
    assert prod.kind == (h1.kind if h1.kind == h2.kind else "raw")
    assert prod.add == add and prod.neg == neg
    assert [(op.name, op.arity, op.table) for op in prod.omega] == omega
    assert proj1.mapping == tuple(x // h2.size for x in range(prod.size))
    assert proj2.mapping == tuple(x % h2.size for x in range(prod.size))
    for table in (prod.add, prod.neg, *(op.table for op in prod.omega)):
        assert all(type(x) is int for x in table)
    return prod


def test_direct_product_tables_match_the_loops_on_catalog_pairs(by_signature):
    pairs = 0
    for family in by_signature.values():
        for h1 in family:
            for h2 in family:
                assert_product_matches(h1, h2)
                pairs += 1
    assert pairs == 7 * 7 + 9 * 9 + 3 * 3


def test_direct_product_of_three_factors_and_of_ternary_operations(algebras):
    left = assert_product_matches(algebras["Z2-ring"], algebras["Z3-ring"])
    assert_product_matches(left, algebras["Z4-ring"])
    assert_product_matches(algebras["M2(F2)-ring"], algebras["Z3-ring"])
    both = assert_product_matches(ternary(2), ternary(3))
    assert assert_product_matches(both, ternary(2)).size == 12


# --- homomorphism -------------------------------------------------------------


def mapping_of(source, target, mapping):
    return homomorphism(source, target, mapping).mapping


def additive_maps(source, target, rng, count):
    """Maps that preserve addition, and as many random maps fixing 0.

    The additive ones are x -> k * x between cyclic groups and F2-linear maps
    between groups of bit vectors under xor.
    """
    n, m = source.size, target.size

    def adds_like(algebra, plus):
        return all(algebra.add_of(x, y) == plus(x, y) for x in algebra.elements
                   for y in algebra.elements)

    maps = []
    if adds_like(source, lambda x, y: (x + y) % n) and adds_like(target, lambda x, y: (x + y) % m):
        maps += [[k * x % m for x in range(n)] for k in range(m) if k * n % m == 0]
    if adds_like(source, int.__xor__) and adds_like(target, int.__xor__):
        for _ in range(count):
            basis = [rng.randrange(m) for _ in range(n.bit_length() - 1)]
            maps.append([0] * n)
            for x in range(1, n):
                for bit, image in enumerate(basis):
                    maps[-1][x] ^= image if x >> bit & 1 else 0
    maps += [[0] + [rng.randrange(m) for _ in range(n - 1)] for _ in range(count)]
    return maps


def test_homomorphism_first_failure_matches_the_loops(algebras):
    rng = random.Random(51)
    families = [
        ["Z2-ring", "Z3-ring", "Z4-ring", "Z6-ring", "F4-ring", "null-ring-4", "M2(F2)-ring"],
        ["Z2-group", "Z4-group", "V4-group", "S3", "D4"],
        ["abelian-lie-4", "heisenberg-lie-8", "sl2-f2"],
    ]
    seen = set()
    for family in families:
        for source, target in iproduct([algebras[name] for name in family], repeat=2):
            for mapping in additive_maps(source, target, rng, 6):
                expected = outcome(ref_homomorphism, source, target, mapping)
                got = outcome(mapping_of, source, target, mapping)
                assert got == expected, (source.name, target.name, mapping)
                seen.add(got[1].split(" at ")[0] if isinstance(got[0], str) else "kept")
    for mapping in ([0, 2, 1], [0, 1, 2], [0, 0, 0]):
        expected = outcome(ref_homomorphism, ternary(3), ternary(3), mapping)
        assert outcome(mapping_of, ternary(3), ternary(3), mapping) == expected
        seen.add(expected[1].split(" at ")[0] if isinstance(expected[0], str) else "kept")
    assert {"kept", "mapping breaks add", "mapping breaks mul",
            "mapping breaks bracket", "mapping breaks t"} <= seen


def test_homomorphism_reports_a_broken_neg_as_the_loops_do():
    z4 = cyclic_group(4)
    # The negation of Z4 replaced by the identity map: not validated, so neg can break.
    broken = FiniteOmegaGroup("Z4-bad-neg", 4, z4.add, (0, 1, 2, 3), ())
    for mapping in ([0, 1, 2, 3], [0, 2, 0, 2], [0, 0, 0, 0]):
        expected = outcome(ref_homomorphism, z4, broken, mapping)
        assert outcome(mapping_of, z4, broken, mapping) == expected
    assert outcome(mapping_of, z4, broken, [0, 1, 2, 3]) == (
        "LawViolationError", "mapping breaks neg at 1")


@pytest.mark.parametrize(
    "mapping", [[0, 2, 4, 6], [0, 1.0, 0, 1], [0, -1, 2, 1], [0, "1", 2, 3], [None, 1, 2, 3]]
)
def test_homomorphism_refuses_values_off_the_target_carrier(mapping):
    z4 = cyclic_group(4)
    with pytest.raises(InvalidArgumentError) as err:
        homomorphism(z4, z4, mapping)
    bad = next(x for x in mapping if not (type(x) is int and 0 <= x < 4))
    assert repr(bad) in str(err.value)


def test_homomorphism_keeps_its_other_errors():
    z4, s3 = cyclic_group(4), symmetric_group_3()
    with pytest.raises(MalformedTableError):
        homomorphism(z4, z4, [0, 1, 2])
    with pytest.raises(LawViolationError, match="0 to 0"):
        homomorphism(z4, z4, [1, 2, 3, 0])
    assert homomorphism(s3, z4, [0] * 6).mapping == (0,) * 6


# --- validate_algebra ---------------------------------------------------------


def test_identity_and_inverse_messages_match_the_loops(algebras):
    rng = random.Random(52)
    cases = []
    for algebra in algebras.values():
        if algebra.size <= 8:
            cases.append(relabel(algebra.add, rng))
    for n in (2, 3, 4, 5, 6):
        identity = [(a + b) % n for a in range(n) for b in range(n)]
        for _ in range(6):
            table = list(identity)
            spot = rng.choice([rng.randrange(n), rng.randrange(n) * n])  # row 0 or column 0
            table[spot] = rng.randrange(n)
            cases.append(table)
    for n in (2, 3, 4, 5):
        cases.append([max(a, b) for a in range(n) for b in range(n)])  # only 0 invertible
    for k in (2, 3):  # Z_k x ({0, 1}, max), relabelled: the pairs (g, 1) have no inverse
        n = 2 * k
        add = [((a // 2 + b // 2) % k) * 2 + max(a % 2, b % 2) for a in range(n) for b in range(n)]
        cases += [relabel(add, rng) for _ in range(4)]
    messages = set()
    for add in cases:
        n = round(len(add) ** 0.5)
        expected = outcome(ref_identity_and_neg, "t", n, tuple(add))
        got = outcome(validate_algebra, "t", n, add)
        if isinstance(expected, tuple) and expected[0] == "NotAGroupError":
            assert got == expected, add
            messages.add("identity" if "identity" in expected[1] else "inverse")
        elif not isinstance(got, tuple):
            assert got.neg == expected
            messages.add("valid")
    assert messages == {"identity", "inverse", "valid"}


# --- as_lie_ring --------------------------------------------------------------


def test_lie_ring_scalar_tables_match_the_loops(algebras):
    for name in ("abelian-lie-4", "heisenberg-lie-8", "sl2-f2"):
        algebra = algebras[name]
        p = 2
        built = as_lie_ring(name, p, algebra.add, algebra.operation("bracket").table)
        for k in range(p):
            expected = []
            for a in range(algebra.size):
                acc = 0
                for _ in range(k):
                    acc = algebra.add_of(acc, a)
                expected.append(acc)
            assert built.operation(f"s{k}").table == tuple(expected)
    f3 = [(a + b) % 3 for a in range(3) for b in range(3)]
    built = as_lie_ring("F3", 3, f3, [0] * 9)
    assert [built.operation(f"s{k}").table for k in range(3)] == [
        (0, 0, 0), (0, 1, 2), (0, 2, 1)]


# --- terms --------------------------------------------------------------------


def test_eval_term_matches_the_recursive_evaluator(algebras):
    rng = random.Random(53)
    for algebra in algebras.values():
        for _ in range(25):
            n_vars = rng.randint(1, 3)
            t = random_term(rng, algebra.signature, n_vars, rng.randint(1, 5))
            point = [rng.randrange(algebra.size) for _ in range(n_vars)]
            value = eval_term(algebra, t, point)
            assert type(value) is int and value == ref_eval_term(algebra, t, point)


def test_eval_term_keeps_its_error_types():
    z4, z4r = cyclic_group(4), cyclic_ring(4)
    bad = [
        (z4, Var(3), (1, 2), UnboundVariableError),
        (z4, Var(1), (), UnboundVariableError),
        (z4r, Op("pow", (Var(1),)), (1,), UnknownOperationError),
        (z4r, Op("mul", (Var(1),)), (1,), ArityMismatchError),
        (z4r, Add(Var(1), Op("mul", (Var(1),))), (1,), ArityMismatchError),
    ]
    for algebra, t, point, error in bad:
        with pytest.raises(error):
            ref_eval_term(algebra, t, point)
        with pytest.raises(error):
            eval_term(algebra, t, point)
    with pytest.raises(TypeError):
        eval_term(z4, "x1", (1,))
    assert eval_term(z4, ZERO, ()) == 0


def test_omega_commutator_matches_the_scalar_word(algebras):
    rng = random.Random(54)
    for algebra in [*algebras.values(), ternary(3)]:
        for op in algebra.omega:
            for _ in range(20):
                a = tuple(rng.randrange(algebra.size) for _ in range(op.arity))
                b = tuple(rng.randrange(algebra.size) for _ in range(op.arity))
                wa, wb = algebra.op(op.name, *a), algebra.op(op.name, *b)
                wab = algebra.op(op.name, *(algebra.add_of(x, y) for x, y in zip(a, b)))
                expected = algebra.add_of(algebra.add_of(algebra.neg_of(wa), algebra.neg_of(wb)),
                                          wab)
                value = omega_commutator(algebra, op.name, a, b)
                assert type(value) is int and value == expected


def test_is_commutator_word_matches_the_pointwise_loop(algebras):
    def reference(algebra, t, x_vars, y_vars):
        n_vars = max([*x_vars, *y_vars])
        for live in (x_vars, y_vars):
            for values in iproduct(algebra.elements, repeat=len(live)):
                point = [0] * n_vars
                for v, val in zip(live, values):
                    point[v - 1] = val
                if ref_eval_term(algebra, t, point) != 0:
                    return False
        return True

    rng = random.Random(55)
    verdicts = set()
    for name in ("Z4-ring", "S3", "abelian-lie-4", "F4-ring"):
        algebra = algebras[name]
        words = [random_term(rng, algebra.signature, 3, 4) for _ in range(30)]
        words += [Op(op.name, (Var(1), Var(2)) + (Var(3),) * (op.arity - 2))
                  for op in algebra.omega if op.arity >= 2]
        for t in words:
            for x_vars, y_vars in (([1], [2, 3]), ([1, 3], [2])):
                verdict = is_commutator_word(algebra, t, x_vars, y_vars)
                assert verdict == reference(algebra, t, x_vars, y_vars), (name, t)
                verdicts.add(verdict)
    assert verdicts == {True, False}


# --- domains ------------------------------------------------------------------


def test_group_zero_divisor_sets_match_the_loops(algebras):
    groups = [a for a in algebras.values() if not a.omega]
    groups += [direct_product(algebras["S3"], algebras["Z2-group"])[0],
               direct_product(algebras["D4"], algebras["Q8"])[0]]
    for group in groups:
        assert group_zero_divisor_sets(group) == ref_group_zero_divisor_sets(group), group.name


def test_formula5_matches_the_loops(algebras):
    rings = [a for a in algebras.values() if a.kind == "ring"]
    rings.append(direct_product(algebras["Z2-ring"], algebras["F4-ring"])[0])
    witnesses = set()
    for ring in rings:
        verdict = ring_satisfies_formula5(ring)
        expected = ref_formula5_pair(ring)
        assert verdict.witness == expected and verdict.verdict == (expected is None)
        assert all(type(v) is int for v in (verdict.witness or {}).values())
        witnesses.add(expected is None)
    assert witnesses == {True, False}
