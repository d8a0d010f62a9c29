"""Finite multioperator groups given by operation tables.

An algebra here is a finite additive group (not necessarily commutative) on
carrier {0..n-1}, with extra operations that all send the all-zero tuple to 0.
Element 0 is always the additive identity; files or tables violating this are
rejected rather than renumbered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ArityMismatchError,
    LawViolationError,
    MalformedTableError,
    NotAGroupError,
    OmegaZeroViolationError,
    SignatureMismatchError,
    UnknownOperationError,
)

MAX_ARITY = 3


@dataclass(frozen=True)
class OperationTable:
    """A total operation on {0..n-1}, stored row-major over arity-tuples."""

    name: str
    arity: int
    table: tuple[int, ...]

    def flat_index(self, args: Sequence[int], size: int) -> int:
        idx = 0
        for a in args:
            idx = idx * size + a
        return idx


class TableArrays(NamedTuple):
    """Read-only intp arrays of an algebra's tables, for vectorized lookups.

    add[a, b] is a + b, neg[a] is -a, and ops[i][x1, ..., xk] applies the
    i-th extra operation (signature order) to a k-tuple.
    """

    add: np.ndarray
    neg: np.ndarray
    ops: tuple[np.ndarray, ...]


def _read_only(values: Sequence[int], shape: tuple[int, ...]) -> np.ndarray:
    array = np.array(values, dtype=np.intp).reshape(shape)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class FiniteOmegaGroup:
    """Validated finite multioperator group; immutable after construction."""

    name: str
    size: int
    add: tuple[int, ...]
    neg: tuple[int, ...]
    omega: tuple[OperationTable, ...]
    kind: str = "raw"
    _ops: dict = field(default_factory=dict, repr=False, compare=False, hash=False)
    _arrays: TableArrays | None = field(default=None, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "_ops", {op.name: op for op in self.omega})

    @property
    def arrays(self) -> TableArrays:
        """The tables as arrays, built on first use and kept with the algebra.

        Threads racing on the first use each build an equal read-only view and
        the last store wins, so no lock is needed.
        """
        arrays = self._arrays
        if arrays is None:
            n = self.size
            arrays = TableArrays(
                _read_only(self.add, (n, n)),
                _read_only(self.neg, (n,)),
                tuple(_read_only(op.table, (n,) * op.arity) for op in self.omega),
            )
            object.__setattr__(self, "_arrays", arrays)
        return arrays

    @property
    def elements(self) -> range:
        return range(self.size)

    @property
    def signature(self) -> tuple[tuple[str, int], ...]:
        return tuple((op.name, op.arity) for op in self.omega)

    def add_of(self, a: int, b: int) -> int:
        return self.add[a * self.size + b]

    def neg_of(self, a: int) -> int:
        return self.neg[a]

    def sub(self, a: int, b: int) -> int:
        """a + (-b)."""
        return self.add[a * self.size + self.neg[b]]

    def op(self, name: str, *args: int) -> int:
        table = self._ops.get(name)
        if table is None:
            raise UnknownOperationError(f"{self.name}: no operation named {name!r}")
        if len(args) != table.arity:
            raise ArityMismatchError(
                f"{self.name}.{name}: expected {table.arity} arguments, got {len(args)}"
            )
        return table.table[table.flat_index(args, self.size)]

    def operation(self, name: str) -> OperationTable:
        table = self._ops.get(name)
        if table is None:
            raise UnknownOperationError(f"{self.name}: no operation named {name!r}")
        return table

    def group_commutator(self, a: int, b: int) -> int:
        """-a - b + a + b; the identity-measuring word of the additive group."""
        return self.add_of(self.add_of(self.add_of(self.neg[a], self.neg[b]), a), b)

    def conjugate(self, a: int, g: int) -> int:
        """-g + a + g."""
        return self.add_of(self.add_of(self.neg[g], a), g)

    def tuple_add(self, xs: Sequence[int], ys: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.add_of(x, y) for x, y in zip(xs, ys))


def apply_operation(algebra: FiniteOmegaGroup, op: str, args: Sequence[int]) -> int:
    """Look up one of {add, neg, <omega name>} on carrier indices."""
    for a in args:
        if not 0 <= a < algebra.size:
            raise MalformedTableError(f"argument {a} outside carrier of size {algebra.size}")
    if op == "add":
        if len(args) != 2:
            raise ArityMismatchError("add expects 2 arguments")
        return algebra.add_of(args[0], args[1])
    if op == "neg":
        if len(args) != 1:
            raise ArityMismatchError("neg expects 1 argument")
        return algebra.neg_of(args[0])
    return algebra.op(op, *args)


def _check_table(name: str, arity: int, table: Sequence[int], size: int) -> tuple[int, ...]:
    if not 1 <= arity <= MAX_ARITY:
        raise MalformedTableError(f"{name}: arity {arity} outside supported range 1..{MAX_ARITY}")
    expected = size**arity
    if len(table) != expected:
        raise MalformedTableError(
            f"{name}: expected {expected} entries for arity {arity} over size {size}, "
            f"got {len(table)}"
        )
    for value in table:
        if not 0 <= value < size:
            raise MalformedTableError(f"{name}: entry {value} outside carrier 0..{size - 1}")
    return tuple(table)


def _derive_neg(name: str, size: int, add: tuple[int, ...]) -> tuple[int, ...]:
    neg = [-1] * size
    for a in range(size):
        for b in range(size):
            if add[a * size + b] == 0 and add[b * size + a] == 0:
                neg[a] = b
                break
        if neg[a] < 0:
            raise NotAGroupError(f"{name}: element {a} has no two-sided inverse")
    return tuple(neg)


def validate_algebra(
    name: str,
    size: int,
    add: Sequence[int],
    omega: Iterable[tuple[str, int, Sequence[int]]] = (),
    kind: str = "raw",
) -> FiniteOmegaGroup:
    """Validate raw tables and return the algebra.

    The addition table must describe a group with identity at index 0; neg is
    derived, never supplied.  Every extra operation must map the all-zero
    tuple to 0.
    """
    if size <= 0:
        raise MalformedTableError(f"{name}: size must be positive, got {size}")
    add_t = _check_table("add", 2, add, size)

    for a in range(size):
        if add_t[a] != a or add_t[a * size] != a:
            raise NotAGroupError(f"{name}: index 0 is not a two-sided identity at element {a}")
    for a in range(size):
        for b in range(size):
            ab = add_t[a * size + b]
            for c in range(size):
                if add_t[ab * size + c] != add_t[a * size + add_t[b * size + c]]:
                    raise NotAGroupError(f"{name}: addition not associative at ({a},{b},{c})")
    neg = _derive_neg(name, size, add_t)

    tables = []
    seen: set[str] = set()
    for op_name, arity, table in omega:
        if op_name in ("add", "neg") or op_name in seen:
            raise MalformedTableError(f"{name}: duplicate or reserved operation name {op_name!r}")
        seen.add(op_name)
        checked = _check_table(op_name, arity, table, size)
        if checked[0] != 0:
            raise OmegaZeroViolationError(
                f"{name}: operation {op_name!r} sends the all-zero tuple to {checked[0]}"
            )
        tables.append(OperationTable(op_name, arity, checked))
    return FiniteOmegaGroup(name, size, add_t, neg, tuple(tables), kind)


@dataclass(frozen=True)
class Homomorphism:
    """A structure-preserving map between algebras of equal signature."""

    source: FiniteOmegaGroup
    target: FiniteOmegaGroup
    mapping: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    def image(self, subset: Iterable[int]) -> frozenset[int]:
        return frozenset(self.mapping[a] for a in subset)


def homomorphism(
    source: FiniteOmegaGroup, target: FiniteOmegaGroup, mapping: Sequence[int]
) -> Homomorphism:
    """Build a homomorphism, verifying preservation of every operation."""
    if source.signature != target.signature:
        raise SignatureMismatchError(
            f"{source.name} -> {target.name}: signatures differ"
        )
    if len(mapping) != source.size:
        raise MalformedTableError("mapping length must equal source size")
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
            lhs = m[source.op(op.name, *args)]
            rhs = target.op(op.name, *(m[a] for a in args))
            if lhs != rhs:
                raise LawViolationError(f"mapping breaks {op.name} at {args}")
    return Homomorphism(source, target, m)


def direct_product(
    h1: FiniteOmegaGroup, h2: FiniteOmegaGroup, name: str | None = None
) -> tuple[FiniteOmegaGroup, Homomorphism, Homomorphism]:
    """Componentwise product; returns the algebra and both projections.

    Pairs (a, b) are encoded as a * h2.size + b, so (0, 0) stays at index 0.
    """
    if h1.signature != h2.signature:
        raise SignatureMismatchError(f"{h1.name} x {h2.name}: signatures differ")
    n1, n2 = h1.size, h2.size
    size = n1 * n2

    def enc(a: int, b: int) -> int:
        return a * n2 + b

    add = [0] * (size * size)
    for a1, b1 in iproduct(range(n1), range(n2)):
        x = enc(a1, b1)
        for a2, b2 in iproduct(range(n1), range(n2)):
            add[x * size + enc(a2, b2)] = enc(h1.add_of(a1, a2), h2.add_of(b1, b2))

    omega = []
    for op1 in h1.omega:
        op2 = h2.operation(op1.name)
        table = []
        for args in iproduct(range(size), repeat=op1.arity):
            firsts = tuple(x // n2 for x in args)
            seconds = tuple(x % n2 for x in args)
            table.append(enc(h1.op(op1.name, *firsts), h2.op(op1.name, *seconds)))
        omega.append((op1.name, op1.arity, table))

    kind = h1.kind if h1.kind == h2.kind else "raw"
    prod = validate_algebra(name or f"{h1.name}x{h2.name}", size, add, omega, kind)
    proj1 = Homomorphism(prod, h1, tuple(x // n2 for x in range(size)))
    proj2 = Homomorphism(prod, h2, tuple(x % n2 for x in range(size)))
    return prod, proj1, proj2


def as_group(name: str, table: Sequence[int]) -> FiniteOmegaGroup:
    """A group is the empty-signature case; the group operation is written additively."""
    size = _square_size(table)
    return validate_algebra(name, size, table, (), kind="group")


def as_ring(name: str, add: Sequence[int], mul: Sequence[int]) -> FiniteOmegaGroup:
    """An associative ring: abelian addition plus one binary operation named mul."""
    size = _square_size(add)
    algebra = validate_algebra(name, size, add, [("mul", 2, mul)], kind="ring")
    for a in range(size):
        for b in range(size):
            if algebra.add_of(a, b) != algebra.add_of(b, a):
                raise LawViolationError(f"{name}: ring addition not commutative at ({a},{b})")
    mul_of = lambda a, b: algebra.op("mul", a, b)
    for a, b, c in iproduct(range(size), repeat=3):
        if mul_of(mul_of(a, b), c) != mul_of(a, mul_of(b, c)):
            raise LawViolationError(f"{name}: multiplication not associative at ({a},{b},{c})")
        if mul_of(a, algebra.add_of(b, c)) != algebra.add_of(mul_of(a, b), mul_of(a, c)):
            raise LawViolationError(f"{name}: left distributivity fails at ({a},{b},{c})")
        if mul_of(algebra.add_of(a, b), c) != algebra.add_of(mul_of(a, c), mul_of(b, c)):
            raise LawViolationError(f"{name}: right distributivity fails at ({a},{b},{c})")
    return algebra


def as_lie_ring(
    name: str, p: int, add: Sequence[int], bracket: Sequence[int]
) -> FiniteOmegaGroup:
    """A Lie ring over the prime field Z_p.

    The signature holds the bracket plus one unary operation per scalar
    (scalar k acts as k-fold addition).  Verified laws: abelian addition of
    exponent p, bracket bilinearity, alternation, and the Jacobi identity.
    """
    size = _square_size(add)
    scalars = []
    base = validate_algebra(name, size, add, (), kind="raw")
    for k in range(p):
        table = []
        for a in range(size):
            acc = 0
            for _ in range(k):
                acc = base.add_of(acc, a)
            table.append(acc)
        scalars.append((f"s{k}", 1, table))
    algebra = validate_algebra(
        name, size, add, [("bracket", 2, bracket)] + scalars, kind="lie-ring"
    )
    br = lambda a, b: algebra.op("bracket", a, b)
    for a in range(size):
        for b in range(size):
            if algebra.add_of(a, b) != algebra.add_of(b, a):
                raise LawViolationError(f"{name}: addition not commutative at ({a},{b})")
        acc = 0
        for _ in range(p):
            acc = algebra.add_of(acc, a)
        if acc != 0:
            raise LawViolationError(f"{name}: additive exponent is not {p} at {a}")
        if br(a, a) != 0:
            raise LawViolationError(f"{name}: bracket not alternating at {a}")
    for a, b, c in iproduct(range(size), repeat=3):
        if br(algebra.add_of(a, b), c) != algebra.add_of(br(a, c), br(b, c)):
            raise LawViolationError(f"{name}: bracket not additive on the left at ({a},{b},{c})")
        if br(a, algebra.add_of(b, c)) != algebra.add_of(br(a, b), br(a, c)):
            raise LawViolationError(f"{name}: bracket not additive on the right at ({a},{b},{c})")
        jac = algebra.add_of(algebra.add_of(br(a, br(b, c)), br(b, br(c, a))), br(c, br(a, b)))
        if jac != 0:
            raise LawViolationError(f"{name}: Jacobi identity fails at ({a},{b},{c})")
    return algebra


def embed_classical(kind: str, name: str, tables: dict) -> FiniteOmegaGroup:
    """Dispatch to the classical constructors by kind tag."""
    if kind == "group":
        return as_group(name, tables["add"])
    if kind == "ring":
        return as_ring(name, tables["add"], tables["mul"])
    if kind == "lie-ring-over-Zp":
        return as_lie_ring(name, tables["p"], tables["add"], tables["bracket"])
    raise ValueError(f"unknown classical kind {kind!r}")


def _square_size(table: Sequence[int]) -> int:
    size = round(len(table) ** 0.5)
    if size * size != len(table):
        raise MalformedTableError(f"binary table length {len(table)} is not a perfect square")
    return size
