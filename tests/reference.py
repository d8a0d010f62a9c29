"""Independent reference routes for the closure and term-parser tests."""

import re

import numpy as np
from hypothesis import strategies as st

from omegagroups import zariski
from omegagroups.errors import ParseError
from omegagroups.terms import (
    _MAX_TERM_DEPTH,
    ZERO,
    Add,
    Neg,
    Op,
    Term,
    Var,
    _tokenize,
    grid_points,
    normalize_equation,
    random_term,
    term_to_str,
)


def worklist_membership(algebra, pts, cand):
    """Membership of one candidate by the subalgebra of H^(pts + candidate).

    The candidate is outside iff the closure of the coordinate projections
    over the columns pts + candidate holds a row vanishing on every point
    but not at the candidate.  The closure is semi-naive, as in the row
    kernel, but uncapped and keyed on whole rows, each read as one integer
    in base |H| and kept in a sorted array; every block of operation values
    is searched for a separating row as it is formed, so a separator found
    early ends the search.
    """
    n, width = algebra.size, len(pts) + 1
    assert n**width < 2**62, "rows too wide for integer codes"
    weights = n ** np.arange(width - 1, -1, -1, dtype=np.int64)

    def decode(codes):
        return (codes[:, None] // weights % n).astype(np.uint8)

    columns = np.array(list(pts) + [cand], dtype=np.uint8)
    start = np.concatenate([np.zeros((1, width), dtype=np.uint8), columns.T])
    seen = np.unique(start @ weights)
    rows = frontier = decode(seen)
    while len(frontier):
        older = rows[: len(rows) - len(frontier)]
        formed = [seen[:0]]
        for op in zariski._signature_ops(algebra):
            for j in range(op.ndim):
                axes = [older] * j + [frontier] + [rows] * (op.ndim - 1 - j)
                for block in zariski._op_values(op, axes):
                    if (~block[:, :-1].any(axis=1) & (block[:, -1] != 0)).any():
                        return False
                    formed.append(np.unique(block @ weights))
        new = np.setdiff1d(np.concatenate(formed), seen)
        seen = np.union1d(seen, new)
        frontier = decode(new)
        rows = np.concatenate([rows, frontier])
    return True


def full_width_oracle(algebra, n_vars, point_sets, max_depth):
    """The bounded-depth oracle with every round over the whole grid.

    The term functions of depth at most max_depth are closed as rows over
    all cells and read by the grid route's table filter, once for each
    point set.  Returns the list of zero sets, or None when a round passes
    the row kernel's entry budget.
    """
    start = zariski._projection_rows(algebra, n_vars)
    try:
        table, _ = zariski._close_rows(zariski._signature_ops(algebra), start, steps=max_depth)
    except zariski._GridOverflow:
        return None
    return [closure_from_table(algebra, n_vars, set(pts), table) for pts in point_sets]


def closure_from_table(algebra, n_vars, pts, table):
    """The closure of pts read from a table of term functions by two row filters.

    The rows vanishing on every point, then the cells where all of them
    vanish.  The grid route reads the same table by its zero bitsets.
    """
    cols = [zariski._cell_index(algebra, p) for p in sorted(pts)]
    vanishing = table[(table[:, cols] == 0).all(axis=1)] if cols else table
    member_mask = (vanishing == 0).all(axis=0)
    cells = list(grid_points(algebra.size, n_vars))
    return frozenset(cells[i] for i in np.nonzero(member_mask)[0])


class StackParser:
    """The term parser that keeps its open constructs on an explicit stack.

    It reads x<digits> by str.isdigit, so a superscript digit such as x²
    escapes as ValueError from int().
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str | None = None) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unexpected end of input in {self.text!r}")
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r} at column {tok[2]}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def term(self) -> Term:
        """Read one term.

        The constructs still open are kept on a stack, not in recursion, so
        nesting costs no interpreter frames; a token inside more than
        _MAX_TERM_DEPTH open constructs is refused.
        """
        stack: list[tuple[str, list[Term]]] = []  # (operation name, "-" or "+"; args so far)
        while True:
            kind, value, col = self.take()
            if len(stack) > _MAX_TERM_DEPTH:
                raise ParseError(f"term nested deeper than {_MAX_TERM_DEPTH} levels at column {col}")
            if kind == "int":
                if value != "0":
                    raise ParseError(f"only the constant 0 is allowed, found {value!r} at column {col}")
                node: Term = ZERO
            elif kind == "name" and value.startswith("x") and value[1:].isdigit():
                index = int(value[1:])
                if index < 1:
                    raise ParseError(f"variable indices are 1-based, found {value!r} at column {col}")
                node = Var(index)
            elif kind == "name":
                self.take("(")
                stack.append((value, []))
                continue
            elif kind == "(":
                if self.peek() and self.peek()[0] == "-":
                    self.take("-")
                    stack.append(("-", []))
                else:
                    stack.append(("+", []))
                continue
            else:
                raise ParseError(f"unexpected token {value!r} at column {col}")
            # Close every construct the node completes; stop at one that takes more.
            while stack:
                name, args = stack[-1]
                args.append(node)
                if name == "+" and len(args) == 1:
                    self.take("+")
                    break
                if name not in ("+", "-") and self.peek() and self.peek()[0] == ",":
                    self.take(",")
                    break
                self.take(")")
                stack.pop()
                if name == "-":
                    node = Neg(node)
                elif name == "+":
                    node = Add(*args)
                else:
                    node = Op(name, tuple(args))
            else:
                return node


def stack_parse_term(text: str) -> Term:
    """parse_term as it was read by the stack parser, kept as its differential reference."""
    parser = StackParser(text)
    lhs = parser.term()
    tok = parser.peek()
    if tok is None:
        return lhs
    if tok[0] == "=":
        parser.take("=")
        rhs = parser.term()
        if parser.peek() is not None:
            extra = parser.peek()
            raise ParseError(f"trailing input at column {extra[2]}: {extra[1]!r}")
        return normalize_equation(lhs, rhs)
    raise ParseError(f"trailing input at column {tok[2]}: {tok[1]!r}")


# --- term texts on which the parsers are compared and the CLI is fuzzed ------

# Tokens of the grammar, names it refuses, and digits int() refuses or reads.
TERM_PIECES = ["0", "1", "x1", "x2", "x3", "x0", "x", "mul", "u", "(", ")", "+", "-", ",", "=",
               "?", "\u00b2", "x\u00b2", "x1\u00b2", "x\u0661", "\u0661", "\u0660"]
# The text one level of each construct adds before and after the term inside it.
NESTINGS = {
    "neg": ("(- ", ")"),
    "add-left": ("(", " + x2)"),
    "add-right": ("(x2 + ", ")"),
    "op-first": ("mul(", ",x1)"),
    "op-last": ("mul(x2,", ")"),
}
DEEP_NESTINGS = [255, 256, 257, 258, 1200]  # either side of the parser's limit of 256, and far past it


@st.composite
def near_valid_terms(draw):
    """A random term or equation with up to two tokens deleted, inserted or extended by a piece."""

    def text():
        seed, depth = draw(st.integers(0, 2**32)), draw(st.integers(1, 4))
        return term_to_str(random_term(seed, (("mul", 2), ("u", 1)), 3, depth))

    tokens = re.findall(r"\w+|\S", text() + (f" = {text()}" if draw(st.booleans()) else ""))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(tokens)))
        change = draw(st.sampled_from(["delete", "insert", "extend"])) if at < len(tokens) else "insert"
        if change == "delete":
            del tokens[at]
        elif change == "insert":
            tokens.insert(at, draw(st.sampled_from(TERM_PIECES)))
        else:  # such as x1 into x1\u00b2
            tokens[at] += draw(st.sampled_from(TERM_PIECES))
    return draw(st.sampled_from(["", " "])).join(tokens)


def nested(kinds, depth):
    """x1 inside depth constructs, taking the kinds in turn from the outside in."""
    levels = [NESTINGS[kinds[i % len(kinds)]] for i in range(depth)]
    return "".join(before for before, _ in levels) + "x1" + "".join(after for _, after in reversed(levels))


@st.composite
def deep_terms(draw):
    """A term nested as deep as DEEP_NESTINGS lists, alone or on either side of an equation."""
    kinds = draw(st.lists(st.sampled_from(sorted(NESTINGS)), min_size=1, max_size=3))
    text = nested(kinds, draw(st.sampled_from(DEEP_NESTINGS)))
    return draw(st.sampled_from([text, f"{text} = x1", f"x1 = {text}"]))
