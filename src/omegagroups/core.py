"""Finite multioperator groups given by operation tables.

An algebra here is a finite additive group (not necessarily commutative) on
carrier {0..n-1}, with extra operations that all send the all-zero tuple to 0.
Element 0 is always the additive identity; files or tables violating this are
rejected rather than renumbered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ArityMismatchError,
    InvalidArgumentError,
    LawViolationError,
    MalformedTableError,
    NotAGroupError,
    OmegaZeroViolationError,
    SignatureMismatchError,
    UnknownOperationError,
)

MAX_ARITY = 3
_LAW_BLOCK_ENTRIES = 1 << 18  # checks of one block of a law scan


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
    # Facts derived from the tables (multiadditivity, additive coordinates),
    # each filled in on first use by _derived below.
    _linear: dict = field(default_factory=dict, repr=False, compare=False, hash=False)

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


def _derived(algebra: FiniteOmegaGroup, name: str, build: Callable):
    """build(algebra), kept with the algebra under `name` from its first use.

    Threads racing on the first use each build an equal value and the last
    store wins, as with ``algebra.arrays``.
    """
    facts = algebra._linear
    if name not in facts:
        facts[name] = build(algebra)
    return facts[name]


def _is_multiadditive(algebra: FiniteOmegaGroup) -> bool:
    """Addition commutative and every extra operation additive in each slot."""
    return _derived(algebra, "multiadditive", _scan_multiadditive)


def _scan_multiadditive(algebra: FiniteOmegaGroup) -> bool:
    view = algebra.arrays
    add = view.add
    if not (add == add.T).all():
        return False
    for op in view.ops:
        for slot in range(op.ndim):
            moved = np.moveaxis(op, slot, 0)
            # w(.., a + b, ..) == w(.., a, ..) + w(.., b, ..) for every a and b
            if _first_failure(
                algebra.size,
                op.size,
                lambda a: moved[add[a]] != add[moved[a][:, None], moved[None]],
            ):
                return False
    return True


def _is_associative_product(algebra: FiniteOmegaGroup) -> bool:
    """Exactly one extra operation, and it is binary and associative (a ring's product)."""
    return _derived(algebra, "associative", _scan_associative_product)


def _scan_associative_product(algebra: FiniteOmegaGroup) -> bool:
    ops = algebra.arrays.ops
    return len(ops) == 1 and ops[0].ndim == 2 and _associativity_failure(ops[0]) is None


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


def _first_failure(
    size: int, checks_per_row: int, failures: Callable[[np.ndarray], np.ndarray]
) -> tuple[int, ...] | None:
    """The first failed check of a law scan over a first argument a in 0..size-1.

    `failures(a)` maps a 1-D block of first arguments to a boolean array, True
    where a check fails: its first axis runs over the block and its other
    axes, row-major, over the checks_per_row checks made at each a, in the
    order a loop would make them.  The blocks stay near _LAW_BLOCK_ENTRIES
    checks.  Returns the index of the first True entry, or None.
    """
    step = max(1, _LAW_BLOCK_ENTRIES // checks_per_row)
    for lo in range(0, size, step):
        failed = failures(np.arange(lo, min(size, lo + step)))
        if failed.any():
            first, *rest = np.unravel_index(int(np.argmax(failed)), failed.shape)
            return (lo + int(first), *(int(i) for i in rest))
    return None


def _associativity_failure(table: np.ndarray) -> tuple[int, ...] | None:
    """The first (a, b, c), row-major, with (a.b).c != a.(b.c) in a binary table, or None."""
    return _first_failure(
        len(table), table.size, lambda a: table[table[a]] != table[a[:, None, None], table]
    )


def _args(failure: Sequence[int]) -> str:
    return "(" + ",".join(str(x) for x in failure) + ")"


def _derive_neg(name: str, add: np.ndarray) -> tuple[int, ...]:
    """-a for each a: the first b with a + b = b + a = 0."""
    inverse = (add == 0) & (add.T == 0)
    missing = ~inverse.any(axis=1)
    if missing.any():
        raise NotAGroupError(f"{name}: element {int(np.argmax(missing))} has no two-sided inverse")
    return tuple(np.argmax(inverse, axis=1).tolist())


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

    add_a = _read_only(add_t, (size, size))
    elements = np.arange(size)
    off = (add_a[0] != elements) | (add_a[:, 0] != elements)
    if off.any():
        raise NotAGroupError(
            f"{name}: index 0 is not a two-sided identity at element {int(np.argmax(off))}"
        )
    failure = _associativity_failure(add_a)
    if failure:
        raise NotAGroupError(f"{name}: addition not associative at {_args(failure)}")
    neg = _derive_neg(name, add_a)

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
    for x in m:
        if not isinstance(x, (int, np.integer)) or not 0 <= x < target.size:
            raise InvalidArgumentError(f"{x!r} is not an element of the carrier of {target.name}")
    if m[0] != 0:
        raise LawViolationError("mapping does not send 0 to 0")
    image = np.array(m, dtype=np.intp)
    src, dst = source.arrays, target.arrays
    names = ("add", "neg", *(op.name for op in source.omega))
    for name, before, after in zip(names, (src.add, src.neg, *src.ops),
                                   (dst.add, dst.neg, *dst.ops)):
        k = before.ndim

        def failures(a: np.ndarray) -> np.ndarray:
            # m(f(a, ...)) against f(m(a), ...), the later arguments over the carrier
            args = [image[a].reshape((-1,) + (1,) * (k - 1))]
            args += [image.reshape((-1,) + (1,) * (k - 2 - i)) for i in range(k - 1)]
            return image[before[a]] != after[tuple(args)]

        failure = _first_failure(source.size, source.size ** (k - 1), failures)
        if failure:
            at = _args(failure) if name == "add" else failure[0] if name == "neg" else failure
            raise LawViolationError(f"mapping breaks {name} at {at}")
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
    first, second = divmod(np.arange(size), n2)

    def table(t1: np.ndarray, t2: np.ndarray) -> tuple[int, ...]:
        """t1 on the first components and t2 on the second, re-encoded as pairs."""
        k = t1.ndim
        shapes = [(-1,) + (1,) * (k - 1 - i) for i in range(k)]
        firsts = tuple(first.reshape(shape) for shape in shapes)
        seconds = tuple(second.reshape(shape) for shape in shapes)
        return tuple((t1[firsts] * n2 + t2[seconds]).ravel().tolist())

    # Componentwise tables of two validated algebras are valid by construction:
    # a group with identity (0, 0), the componentwise inverse as neg, and
    # operations sending the zero tuple to (0, 0).  So nothing is re-validated.
    v1, v2 = h1.arrays, h2.arrays
    omega = tuple(OperationTable(op.name, op.arity, table(t1, t2))
                  for op, t1, t2 in zip(h1.omega, v1.ops, v2.ops))
    prod = FiniteOmegaGroup(
        name or f"{h1.name}x{h2.name}",
        size,
        table(v1.add, v2.add),
        table(v1.neg, v2.neg),
        omega,
        h1.kind if h1.kind == h2.kind else "raw",
    )
    proj1 = Homomorphism(prod, h1, tuple(first.tolist()))
    proj2 = Homomorphism(prod, h2, tuple(second.tolist()))
    return prod, proj1, proj2


def as_group(name: str, table: Sequence[int]) -> FiniteOmegaGroup:
    """A group is the empty-signature case; the group operation is written additively."""
    size = _square_size(table)
    return validate_algebra(name, size, table, (), kind="group")


def as_ring(name: str, add: Sequence[int], mul: Sequence[int]) -> FiniteOmegaGroup:
    """An associative ring: abelian addition plus one binary operation named mul."""
    size = _square_size(add)
    algebra = validate_algebra(name, size, add, [("mul", 2, mul)], kind="ring")
    # Local arrays: the algebra's own view is built on first use, not here.
    plus = _read_only(algebra.add, (size, size))
    times = _read_only(algebra.omega[0].table, (size, size))
    failure = _first_failure(size, size, lambda a: plus[a] != plus[:, a].T)
    if failure:
        raise LawViolationError(f"{name}: ring addition not commutative at {_args(failure)}")

    def failures(a: np.ndarray) -> np.ndarray:
        a, b, c = a[:, None, None], np.arange(size)[:, None], np.arange(size)
        ab, ac, bc = times[a, b], times[a, c], times[b, c]
        return np.stack(
            [
                times[ab, c] != times[a, bc],
                times[a, plus[b, c]] != plus[ab, ac],
                times[plus[a, b], c] != plus[ac, bc],
            ],
            axis=-1,
        )

    laws = ["multiplication not associative", "left distributivity fails",
            "right distributivity fails"]
    failure = _first_failure(size, 3 * size * size, failures)
    if failure:
        raise LawViolationError(f"{name}: {laws[failure[3]]} at {_args(failure[:3])}")
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
    plus = validate_algebra(name, size, add, (), kind="raw").arrays.add
    scalars, multiple = [], np.zeros(size, dtype=np.intp)
    for k in range(p):  # multiple[a] = k * a
        scalars.append((f"s{k}", 1, multiple.tolist()))
        multiple = plus[multiple, np.arange(size)]
    algebra = validate_algebra(
        name, size, add, [("bracket", 2, bracket)] + scalars, kind="lie-ring"
    )
    br = _read_only(algebra.omega[0].table, (size, size))

    def pair_failures(a: np.ndarray) -> np.ndarray:
        # At each a: commutativity with every b, then the exponent, then alternation.
        multiple = np.zeros_like(a)
        for _ in range(p):
            multiple = plus[multiple, a]
        return np.concatenate(
            [plus[a] != plus[:, a].T, (multiple != 0)[:, None], (br[a, a] != 0)[:, None]], axis=1
        )

    failure = _first_failure(size, size + 2, pair_failures)
    if failure:
        a, check = failure
        if check < size:
            raise LawViolationError(f"{name}: addition not commutative at {_args(failure)}")
        if check == size:
            raise LawViolationError(f"{name}: additive exponent is not {p} at {a}")
        raise LawViolationError(f"{name}: bracket not alternating at {a}")

    def failures(a: np.ndarray) -> np.ndarray:
        a, b, c = a[:, None, None], np.arange(size)[:, None], np.arange(size)
        ab, ac, bc = br[a, b], br[a, c], br[b, c]
        jacobi = plus[plus[br[a, bc], br[b, br[c, a]]], br[c, ab]]
        return np.stack(
            [
                br[plus[a, b], c] != plus[ac, bc],
                br[a, plus[b, c]] != plus[ab, ac],
                jacobi != 0,
            ],
            axis=-1,
        )

    laws = ["bracket not additive on the left", "bracket not additive on the right",
            "Jacobi identity fails"]
    failure = _first_failure(size, 3 * size * size, failures)
    if failure:
        raise LawViolationError(f"{name}: {laws[failure[3]]} at {_args(failure[:3])}")
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
