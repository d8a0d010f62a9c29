"""Terms over the free multioperator group: trees, evaluation, and parsing.

A term is built from variables x1, x2, ..., the constant 0, negation, binary
addition, and the extra operations of a signature.  Terms are immutable and
compared structurally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Iterator, Sequence

import numpy as np

from .core import FiniteOmegaGroup
from .errors import ArityMismatchError, InvalidArgumentError, ParseError, UnboundVariableError

__all__ = [
    "Term",
    "Zero",
    "Var",
    "Neg",
    "Add",
    "Op",
    "ZERO",
    "vars_of",
    "eval_term",
    "term_values",
    "grid_points",
    "omega_commutator",
    "is_commutator_word",
    "normalize_equation",
    "random_term",
    "term_to_str",
    "parse_term",
]


_MAX_TERM_DEPTH = 256  # deepest term parse_term reads, on either side of an equation
# Deepest term built at all: two levels more hold the normal form lhs + (-rhs)
# of an equation of two deepest sides.  Hashing, comparing, evaluating and
# printing a term recurse once per level, so this keeps them far inside the
# interpreter's recursion limit.
_MAX_NODE_DEPTH = _MAX_TERM_DEPTH + 2


class Term:
    __slots__ = ()


def _set_depth(node: Term, children) -> None:
    """Record node.depth, one more than its deepest child; refuse it past _MAX_NODE_DEPTH."""
    depth = 1 + max((getattr(child, "depth", 0) for child in children), default=0)
    if depth > _MAX_NODE_DEPTH:
        raise InvalidArgumentError(f"term nested deeper than {_MAX_NODE_DEPTH} levels")
    object.__setattr__(node, "depth", depth)


def _depth_field():
    return field(init=False, compare=False, hash=False, repr=False)


@dataclass(frozen=True)
class Zero(Term):
    __slots__ = ()
    depth = 0


@dataclass(frozen=True)
class Var(Term):
    index: int  # 1-based
    depth = 0


@dataclass(frozen=True)
class Neg(Term):
    child: Term
    depth: int = _depth_field()

    def __post_init__(self):
        _set_depth(self, (self.child,))


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term
    depth: int = _depth_field()

    def __post_init__(self):
        _set_depth(self, (self.left, self.right))


@dataclass(frozen=True)
class Op(Term):
    name: str
    args: tuple[Term, ...]
    depth: int = _depth_field()

    def __post_init__(self):
        _set_depth(self, self.args)


ZERO = Zero()


def vars_of(t: Term) -> frozenset[int]:
    if isinstance(t, Var):
        return frozenset((t.index,))
    if isinstance(t, Neg):
        return vars_of(t.child)
    if isinstance(t, Add):
        return vars_of(t.left) | vars_of(t.right)
    if isinstance(t, Op):
        out: frozenset[int] = frozenset()
        for a in t.args:
            out |= vars_of(a)
        return out
    return frozenset()


def eval_term(algebra: FiniteOmegaGroup, t: Term, point: Sequence[int]) -> int:
    """Evaluate t at the point (one carrier value per variable)."""
    return int(term_values(algebra, t, len(point), points=[point])[0])


def _coordinate_vectors(size: int, n_vars: int) -> list[np.ndarray]:
    total = size**n_vars
    idx = np.arange(total)
    coords = []
    for i in range(n_vars):
        coords.append((idx // size ** (n_vars - 1 - i)) % size)
    return [c.astype(np.int64) for c in coords]


def term_values(
    algebra: FiniteOmegaGroup, t: Term, n_vars: int, points: Sequence[Sequence[int]] | None = None
) -> np.ndarray:
    """Vector of term values, over the whole grid H^n_vars or over given points.

    Grid order is row-major: the last variable varies fastest.
    """
    if points is None:
        coords = _coordinate_vectors(algebra.size, n_vars)
    else:
        arr = np.asarray(points, dtype=np.int64).reshape(len(points), n_vars)
        coords = [arr[:, i] for i in range(n_vars)]
    view = algebra.arrays
    ops = {table.name: array for table, array in zip(algebra.omega, view.ops)}

    def rec(node: Term) -> np.ndarray:
        if isinstance(node, Zero):
            return np.zeros_like(coords[0]) if coords else np.zeros(1, dtype=np.int64)
        if isinstance(node, Var):
            if node.index > n_vars:
                raise UnboundVariableError(f"x{node.index} exceeds {n_vars} variables")
            return coords[node.index - 1]
        if isinstance(node, Neg):
            return view.neg[rec(node.child)]
        if isinstance(node, Add):
            return view.add[rec(node.left), rec(node.right)]
        if isinstance(node, Op):
            table = algebra.operation(node.name)
            if len(node.args) != table.arity:
                raise ArityMismatchError(
                    f"{node.name}: expected {table.arity} arguments, got {len(node.args)}"
                )
            return ops[node.name][tuple(rec(a) for a in node.args)]
        raise TypeError(f"not a term: {node!r}")

    return rec(t)


def grid_points(size: int, n_vars: int) -> Iterator[tuple[int, ...]]:
    """All points of H^n_vars in row-major (lexicographic) order."""
    return iproduct(range(size), repeat=n_vars)


def omega_commutator(
    algebra: FiniteOmegaGroup, name: str, a: Sequence[int], b: Sequence[int]
) -> int:
    """-w(a) - w(b) + w(a+b), with componentwise tuple addition, in that order."""
    table = algebra.operation(name)
    if len(a) != table.arity or len(b) != table.arity:
        raise ArityMismatchError(f"{name}: tuples must have length {table.arity}")
    view = algebra.arrays
    w, plus = view.ops[algebra.omega.index(table)], view.add
    wa, wb = w[tuple(a)], w[tuple(b)]
    wab = w[tuple(plus[x, y] for x, y in zip(a, b))]
    return int(plus[plus[view.neg[wa], view.neg[wb]], wab])


def is_commutator_word(
    algebra: FiniteOmegaGroup,
    t: Term,
    x_vars: Sequence[int],
    y_vars: Sequence[int],
) -> bool:
    """True iff t vanishes whenever either variable block is set to zero.

    The check is semantic: it exhausts assignments over the given algebra,
    which is all any finite-model use of the notion requires.
    """
    used = vars_of(t)
    declared = set(x_vars) | set(y_vars)
    if not used <= declared:
        raise UnboundVariableError(f"split misses variables {sorted(used - declared)}")
    if set(x_vars) & set(y_vars):
        raise ValueError("variable blocks must be disjoint")
    n_vars = max(declared, default=0)
    for live in (x_vars, y_vars):  # the other block set to zero
        coords = _coordinate_vectors(algebra.size, len(live))
        points = np.zeros((algebra.size ** len(live), n_vars), dtype=np.int64)
        for v, values in zip(live, coords):
            points[:, v - 1] = values
        if term_values(algebra, t, n_vars, points=points).any():
            return False
    return True


def normalize_equation(lhs: Term, rhs: Term) -> Term:
    """Fold lhs = rhs into the single term lhs + (-rhs), which vanishes iff they agree."""
    return Add(lhs, Neg(rhs))


def random_term(
    seed: int | random.Random,
    signature: Sequence[tuple[str, int]],
    n_vars: int,
    max_depth: int,
) -> Term:
    """Draw a term of depth <= max_depth, uniformly over node kinds at each step."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)

    def build(budget: int) -> Term:
        if budget <= 1:
            kinds: list = ["zero", "var"]
        else:
            kinds = ["zero", "var", "neg", "add"] + [f"op:{name}" for name, _ in signature]
        kind = rng.choice(kinds)
        if kind == "zero":
            return ZERO
        if kind == "var":
            return Var(rng.randrange(1, n_vars + 1))
        if kind == "neg":
            return Neg(build(budget - 1))
        if kind == "add":
            return Add(build(budget - 1), build(budget - 1))
        name = kind.split(":", 1)[1]
        arity = dict(signature)[name]
        return Op(name, tuple(build(budget - 1) for _ in range(arity)))

    return build(max_depth)


def term_to_str(t: Term) -> str:
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, Var):
        return f"x{t.index}"
    if isinstance(t, Neg):
        return f"(- {term_to_str(t.child)})"
    if isinstance(t, Add):
        return f"({term_to_str(t.left)} + {term_to_str(t.right)})"
    if isinstance(t, Op):
        return f"{t.name}({','.join(term_to_str(a) for a in t.args)})"
    raise TypeError(f"not a term: {t!r}")


# --- expression grammar -----------------------------------------------------
#
#   term   := '0' | 'x'<decimal digits> | '(' term '+' term ')' | '(' '-' term ')'
#           | ident '(' term (',' term)* ')'
#   input  := term | term '=' term        (equations are normalized)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()+-,=":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r} at column {i}")
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def accept(self, kind: str) -> bool:
        """Take the next token if it is of this kind."""
        if self.peek() is None or self.peek()[0] != kind:
            return False
        self.pos += 1
        return True

    def take(self, kind: str | None = None) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input in {self.text!r}")
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r} at column {tok[2]}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def term(self, depth: int = 0) -> Term:
        """Read one term inside depth open constructs.

        A token inside more than _MAX_TERM_DEPTH open constructs is refused,
        so the recursion stays as shallow as evaluating the term.
        """
        kind, value, col = self.take()
        if depth > _MAX_TERM_DEPTH:
            raise ParseError(f"term nested deeper than {_MAX_TERM_DEPTH} levels at column {col}")
        if kind == "int":
            if value != "0":
                raise ParseError(f"only the constant 0 is allowed, found {value!r} at column {col}")
            return ZERO
        if kind == "name" and value.startswith("x") and value[1:].isdecimal():
            index = int(value[1:])
            if index < 1:
                raise ParseError(f"variable indices are 1-based, found {value!r} at column {col}")
            return Var(index)
        if kind == "name":
            self.take("(")
            args = [self.term(depth + 1)]
            while self.accept(","):
                args.append(self.term(depth + 1))
            self.take(")")
            return Op(value, tuple(args))
        if kind != "(":
            raise ParseError(f"unexpected token {value!r} at column {col}")
        if self.accept("-"):
            node: Term = Neg(self.term(depth + 1))
        else:
            left = self.term(depth + 1)
            self.take("+")
            node = Add(left, self.term(depth + 1))
        self.take(")")
        return node


def parse_term(text: str) -> Term:
    """Parse a term, or an equation lhs = rhs (normalized to lhs + (-rhs))."""
    parser = _Parser(text)
    term = parser.term()
    if parser.accept("="):
        term = normalize_equation(term, parser.term())
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"trailing input at column {tok[2]}: {tok[1]!r}")
    return term
