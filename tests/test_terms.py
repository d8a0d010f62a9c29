import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegagroups import terms
from omegagroups.catalog import cyclic_group, cyclic_ring, symmetric_group_3
from omegagroups.core import direct_product
from omegagroups.errors import InvalidArgumentError, ParseError, UnboundVariableError
from omegagroups.terms import (
    Add,
    Neg,
    Op,
    Var,
    ZERO,
    eval_term,
    grid_points,
    is_commutator_word,
    normalize_equation,
    omega_commutator,
    parse_term,
    random_term,
    term_to_str,
    term_values,
    vars_of,
)
from omegagroups.zariski import EquationSystem, solve_system
from reference import (
    DEEP_NESTINGS,
    NESTINGS,
    TERM_PIECES,
    deep_terms,
    near_valid_terms,
    nested,
    stack_parse_term,
)


def test_eval_term_basics():
    z4g = cyclic_group(4)
    assert eval_term(z4g, Add(Var(1), Var(2)), (1, 3)) == 0
    z4r = cyclic_ring(4)
    assert eval_term(z4r, Op("mul", (Var(1), Var(1))), (2,)) == 0
    with pytest.raises(UnboundVariableError):
        eval_term(z4g, Var(3), (1, 2))


def test_every_term_vanishes_at_zero_point(algebras):
    rng = random.Random(11)
    for algebra in algebras.values():
        for _ in range(25):
            t = random_term(rng, algebra.signature, 3, 4)
            assert eval_term(algebra, t, (0, 0, 0)) == 0


def test_omega_commutator_values():
    z4r = cyclic_ring(4)
    assert omega_commutator(z4r, "mul", (2, 2), (1, 1)) == 0
    z3r = cyclic_ring(3)
    assert omega_commutator(z3r, "mul", (1, 1), (1, 1)) == 2


def test_omega_commutator_with_zero_tuple(algebras):
    rng = random.Random(5)
    for algebra in algebras.values():
        for table in algebra.omega:
            for _ in range(10):
                a = tuple(rng.randrange(algebra.size) for _ in range(table.arity))
                zero = (0,) * table.arity
                assert omega_commutator(algebra, table.name, a, zero) == 0


def test_is_commutator_word():
    s3 = symmetric_group_3()
    group_comm = Add(Add(Add(Neg(Var(1)), Neg(Var(2))), Var(1)), Var(2))
    assert is_commutator_word(s3, group_comm, [1], [2])
    assert not is_commutator_word(s3, Var(1), [1], [2])
    z4r = cyclic_ring(4)
    assert is_commutator_word(z4r, Op("mul", (Var(1), Var(2))), [1], [2])


def test_normalize_equation_structure_and_solutions():
    assert normalize_equation(Var(1), Var(2)) == Add(Var(1), Neg(Var(2)))
    z4r = cyclic_ring(4)
    w = Op("mul", (Var(1), Var(2)))
    trivial = normalize_equation(w, w)
    for p in grid_points(4, 2):
        assert eval_term(z4r, trivial, p) == 0
    sym = normalize_equation(
        Op("mul", (Var(1), Var(2))), Op("mul", (Var(2), Var(1)))
    )
    assert eval_term(z4r, sym, (1, 2)) == 0


def test_normalize_preserves_solution_sets(algebras):
    rng = random.Random(23)
    small = [a for a in algebras.values() if a.size <= 4]
    for algebra in small:
        for _ in range(20):
            lhs = random_term(rng, algebra.signature, 2, 3)
            rhs = random_term(rng, algebra.signature, 2, 3)
            folded = normalize_equation(lhs, rhs)
            direct = {
                p
                for p in grid_points(algebra.size, 2)
                if eval_term(algebra, lhs, p) == eval_term(algebra, rhs, p)
            }
            solved = solve_system(algebra, EquationSystem(2, (folded,)))
            assert solved == direct


def test_random_term_contracts():
    sig = cyclic_ring(4).signature
    for seed in range(30):
        t = random_term(seed, (), 2, 1)
        assert t == ZERO or isinstance(t, Var)
    assert random_term(99, sig, 3, 4) == random_term(99, sig, 3, 4)
    draws = [random_term(seed, sig, 2, 4) for seed in range(1000)]
    assert any("mul(" in term_to_str(t) for t in draws)


def test_random_term_respects_depth():
    def depth(t):
        if isinstance(t, (Var, type(ZERO))):
            return 1
        if isinstance(t, Neg):
            return 1 + depth(t.child)
        if isinstance(t, Add):
            return 1 + max(depth(t.left), depth(t.right))
        return 1 + max(depth(a) for a in t.args)

    sig = cyclic_ring(3).signature
    assert all(depth(random_term(seed, sig, 3, 4)) <= 4 for seed in range(300))


def test_term_values_matches_pointwise_eval():
    z4r = cyclic_ring(4)
    rng = random.Random(3)
    for _ in range(20):
        t = random_term(rng, z4r.signature, 2, 4)
        vec = term_values(z4r, t, 2)
        for i, p in enumerate(grid_points(4, 2)):
            assert vec[i] == eval_term(z4r, t, p)


def test_parser_round_trip_and_grammar():
    texts = [
        "0",
        "x1",
        "(x1 + x2)",
        "(- x1)",
        "mul(x1,x2)",
        "mul((x1 + (- x2)),0)",
        "bracket(x1,bracket(x2,x3))",
    ]
    for text in texts:
        term = parse_term(text)
        assert parse_term(term_to_str(term)) == term
    assert parse_term(" ( x1+ x2 ) ") == Add(Var(1), Var(2))
    assert parse_term("x\u0661") == Var(1)  # an Arabic-Indic one is a decimal digit


def test_parser_normalizes_equations():
    assert parse_term("x1 = x2") == Add(Var(1), Neg(Var(2)))


@pytest.mark.parametrize(
    "bad",
    ["", "x0", "(x1 +)", "(x1 - x2)", "mul(x1", "1", "x1 = x2 = x3", "x1 x2", "x\u00b2", "x1\u00b2"],
)
def test_parser_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_term(bad)


def test_parser_refuses_terms_nested_too_deep_to_evaluate():
    for text in ("(- " * 1200 + "x1" + ")" * 1200, "mul(" * 800 + "x1" + ",x1)" * 800):
        with pytest.raises(ParseError):
            parse_term(text)
    depth = terms._MAX_TERM_DEPTH
    product, negation = "mul(" * depth + "x1" + ",x1)" * depth, "(- " * depth + "x1" + ")" * depth
    deepest = parse_term(f"{product} = {negation}")
    assert term_values(cyclic_ring(4), deepest, 1).shape == (4,)
    with pytest.raises(ParseError):
        parse_term("(- " * (depth + 1) + "x1" + ")" * (depth + 1))


def parse_outcome(parse, text):
    """The term parsed, or the name and message of the error raised.

    The term is compared in printed form, which tells terms apart as == does:
    == on two Op chains about 250 deep passes the interpreter's recursion limit.
    """
    try:
        return "Term", term_to_str(parse(text))
    except (ParseError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def assert_parses_as_the_stack_parser(text):
    expected, got = parse_outcome(stack_parse_term, text), parse_outcome(parse_term, text)
    if expected[0] == "ValueError":  # x followed by a digit that int() refuses
        assert got[0] == "ParseError"
    else:
        assert got == expected


@given(
    text=st.one_of(
        near_valid_terms(),
        st.lists(st.sampled_from(TERM_PIECES), max_size=12).map(" ".join),
        deep_terms(),
    )
)
@settings(derandomize=True, max_examples=600, deadline=None)
def test_parser_matches_the_stack_parser(text):
    assert_parses_as_the_stack_parser(text)


def test_parser_matches_the_stack_parser_at_its_depth_limit():
    for kind in NESTINGS:
        for depth in DEEP_NESTINGS:
            text = nested([kind], depth)
            for equation in (text, f"{text} = x1", f"x1 = {text}"):
                assert_parses_as_the_stack_parser(equation)


def test_terms_built_too_deep_are_refused_at_construction():
    z4 = cyclic_ring(4)
    chain = Var(1)
    with pytest.raises(InvalidArgumentError):
        for _ in range(1200):
            chain = Neg(chain)
    assert chain.depth == terms._MAX_NODE_DEPTH
    for build in (lambda t: Add(t, ZERO), lambda t: Op("mul", (Var(1), t))):
        term = Var(1)
        with pytest.raises(InvalidArgumentError):
            for _ in range(1200):
                term = build(term)
    deep = Var(1)
    for _ in range(terms._MAX_TERM_DEPTH):
        deep = Neg(deep)
    assert deep.depth == 256 and hash(deep) == hash(Neg(deep.child))
    assert term_values(z4, deep, 1).tolist() == [0, 1, 2, 3]  # an even number of negations
    assert eval_term(z4, deep, [3]) == 3
    # The depth takes no part in equality, hashing or repr.
    assert "depth" not in repr(Neg(Var(1))) and Neg(Var(1)) == Neg(Var(1))


def test_vars_of():
    t = parse_term("mul((x1 + x3),(- x1))")
    assert vars_of(t) == {1, 3}


def _product_fixture(h1, h2):
    prod, _, _ = direct_product(h1, h2)
    left = [a * h2.size for a in range(h1.size)]
    right = list(range(h2.size))
    return prod, left, right


def test_factor_decomposition_for_split_terms():
    """Terms over commuting factor copies split into their one-sided parts."""
    rng = random.Random(41)
    for h1, h2 in ((cyclic_group(2), cyclic_group(2)), (cyclic_group(2), cyclic_group(3))):
        prod, left, right = _product_fixture(h1, h2)
        pts = [(a1, a2, b1, b2) for a1 in left for a2 in left for b1 in right for b2 in right]
        zero_b = [(a1, a2, 0, 0) for (a1, a2, b1, b2) in pts]
        zero_a = [(0, 0, b1, b2) for (a1, a2, b1, b2) in pts]
        add_t = np.asarray(prod.add, dtype=np.int64)
        for _ in range(60):
            t = random_term(rng, prod.signature, 4, 4)
            full = term_values(prod, t, 4, points=pts)
            part_a = term_values(prod, t, 4, points=zero_b)
            part_b = term_values(prod, t, 4, points=zero_a)
            assert np.array_equal(full, add_t[part_a * prod.size + part_b])
            assert np.array_equal(full, add_t[part_b * prod.size + part_a])
