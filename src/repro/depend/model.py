"""Loop intermediate representation.

The paper assumes a parallelizing compiler (Parafrase, PFC, PTRAN) has
already produced loops with analyzable array subscripts.  This module is
the front-end substitute: a small IR for (possibly nested) ``DO`` loops
whose statements read and write array elements through affine subscripts,
plus a sequential reference executor used by the validators.

The running example from the paper, Fig. 2.1(a)::

    DO I = 1, N
      S1: A[I+3] = ...
      S2: ...    = A[I+1]
      S3: ...    = A[I+2]
      S4: A[I]   = ...
      S5: ...    = A[I-1]
    END DO

is expressed with :func:`repro.apps.kernels.fig21_loop`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import mul
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Tuple)

from ..sim.ops import Address
from ..sim.validate import mix

#: iteration index vector, one component per nesting level
Index = Tuple[int, ...]


@dataclass(frozen=True)
class AffineExpr:
    """``sum_k coefs[k] * index[k] + const`` over the loop index vector."""

    coefs: Tuple[int, ...]
    const: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.coefs, tuple):
            object.__setattr__(self, "coefs", tuple(self.coefs))

    def eval(self, index: Index) -> int:
        """Value of the expression at a concrete iteration."""
        if len(index) != len(self.coefs):
            raise ValueError(
                f"index arity {len(index)} != expression arity "
                f"{len(self.coefs)}")
        return self.const + sum(c * i for c, i in zip(self.coefs, index))

    def __str__(self) -> str:
        names = "ijklmn"
        parts = []
        for position, coef in enumerate(self.coefs):
            if coef == 0:
                continue
            name = names[position] if position < len(names) else f"x{position}"
            parts.append(name if coef == 1 else f"{coef}{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        return "+".join(parts).replace("+-", "-")


def index_expr(dim: int, ndims: int, offset: int = 0, coef: int = 1) -> AffineExpr:
    """Convenience: the expression ``coef * index[dim] + offset``."""
    coefs = [0] * ndims
    coefs[dim] = coef
    return AffineExpr(tuple(coefs), offset)


@dataclass(frozen=True)
class ArrayRef:
    """A subscripted array reference, e.g. ``A[I+3]`` or ``B[I-1, J-1]``."""

    array: str
    subscripts: Tuple[AffineExpr, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.subscripts, tuple):
            object.__setattr__(self, "subscripts", tuple(self.subscripts))

    def element(self, index: Index) -> Tuple[int, ...]:
        """The concrete element coordinates referenced at ``index``."""
        return tuple(expr.eval(index) for expr in self.subscripts)

    def __str__(self) -> str:
        inner = ",".join(str(s) for s in self.subscripts)
        return f"{self.array}[{inner}]"


def ref1(array: str, ndims: int, offset: int = 0, dim: int = 0) -> ArrayRef:
    """One-dimensional reference ``array[index[dim] + offset]``."""
    return ArrayRef(array, (index_expr(dim, ndims, offset),))


@dataclass(frozen=True)
class Statement:
    """One executable statement in the loop body.

    ``cost`` is the statement's computation time in cycles; it may be a
    callable of the iteration index to model data-dependent running times
    (the paper's "one process delays its release ... e.g. executing a
    longer branch").  ``guard`` makes the statement conditional; a guarded
    statement may be a dependence source that does not execute in some
    iterations (section 5, Example 3).
    """

    sid: str
    writes: Tuple[ArrayRef, ...] = ()
    reads: Tuple[ArrayRef, ...] = ()
    cost: Any = 10  # int or Callable[[Index], int]
    guard: Optional[Callable[[Index], bool]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.writes, tuple):
            object.__setattr__(self, "writes", tuple(self.writes))
        if not isinstance(self.reads, tuple):
            object.__setattr__(self, "reads", tuple(self.reads))

    def cost_at(self, index: Index) -> int:
        """Computation cycles of this statement at a given iteration."""
        if callable(self.cost):
            return int(self.cost(index))
        return int(self.cost)

    def executes_at(self, index: Index) -> bool:
        """Whether the statement runs in this iteration (guard check)."""
        return self.guard is None or bool(self.guard(index))

    def refs(self) -> Iterator[Tuple[str, ArrayRef]]:
        """All accesses as ("W"/"R", ref) pairs, writes first."""
        for ref in self.writes:
            yield "W", ref
        for ref in self.reads:
            yield "R", ref


class LoweredStatement(NamedTuple):
    """One executed statement instance: the flat addresses it reads and
    writes, in declaration order, its computation cycles and its
    ``(sid, lpid)`` tag.  The address and tag tuples are the lowering's
    own objects, one per value per loop; consumers key on them rather
    than build their own."""

    sid: str
    reads: Tuple[Address, ...]
    writes: Tuple[Address, ...]
    cost: int
    tag: Tuple[str, int]


class LoweredRow(NamedTuple):
    """One iteration of a lowered loop (see :meth:`Loop.lowered`):
    ``statements`` has one entry per body statement, in textual order,
    None where the statement's guard skips it."""

    index: Index
    lpid: int
    statements: Tuple[Optional[LoweredStatement], ...]


@dataclass
class Loop:
    """A perfect nest of ``DO`` loops with a straight-line (possibly
    guarded) body, to be run as a DOACROSS.

    ``bounds`` are inclusive ``(lo, hi)`` pairs, outermost first.  Array
    elements are flattened to ``(array, flat_index)`` addresses using
    ``array_shapes`` (row-major); arrays default to one dimension.
    """

    name: str
    bounds: Tuple[Tuple[int, int], ...]
    body: List[Statement]
    array_shapes: Dict[str, Tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.bounds = tuple(tuple(b) for b in self.bounds)
        for lo, hi in self.bounds:
            if lo > hi:
                raise ValueError(f"empty loop bounds ({lo}, {hi})")
        sids = [s.sid for s in self.body]
        if len(set(sids)) != len(sids):
            raise ValueError(f"duplicate statement ids in {self.name}: {sids}")

    # ------------------------------------------------------------------
    # iteration space
    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.bounds)

    @property
    def extents(self) -> Tuple[int, ...]:
        return tuple(hi - lo + 1 for lo, hi in self.bounds)

    def iteration_space(self) -> List[Index]:
        """All iterations in sequential (lexicographic) order."""
        ranges = [range(lo, hi + 1) for lo, hi in self.bounds]
        return [tuple(idx) for idx in itertools.product(*ranges)]

    def in_bounds(self, index: Index) -> bool:
        return all(lo <= i <= hi
                   for (lo, hi), i in zip(self.bounds, index))

    def lpid(self, index: Index) -> int:
        """Linearized process id (1-based), as in the paper's Example 2:
        for index set ``(i, j)`` with inner extent M, ``lpid = (i-1)*M+j``
        (generalized to arbitrary depth and bounds)."""
        pid = 0
        for (lo, _hi), extent, i in zip(self.bounds, self.extents, index):
            pid = pid * extent + (i - lo)
        return pid + 1

    def index_of_lpid(self, lpid: int) -> Index:
        """Inverse of :meth:`lpid`."""
        remaining = lpid - 1
        reversed_index: List[int] = []
        for (lo, _hi), extent in zip(reversed(self.bounds),
                                     reversed(self.extents)):
            reversed_index.append(lo + remaining % extent)
            remaining //= extent
        return tuple(reversed(reversed_index))

    @property
    def n_iterations(self) -> int:
        total = 1
        for extent in self.extents:
            total *= extent
        return total

    # ------------------------------------------------------------------
    # addressing
    # ------------------------------------------------------------------

    def flatten(self, array: str, element: Tuple[int, ...]) -> Address:
        """Map element coordinates to a flat ``(array, index)`` address."""
        shape = self.array_shapes.get(array)
        if shape is None:
            if len(element) != 1:
                raise ValueError(
                    f"array {array!r} has no declared shape but is "
                    f"accessed with {len(element)} subscripts")
            return (array, element[0])
        if len(shape) != len(element):
            raise ValueError(
                f"array {array!r} has shape {shape} but is accessed "
                f"with {len(element)} subscripts")
        flat = 0
        for size, coordinate in zip(shape, element):
            flat = flat * size + coordinate
        return (array, flat)

    def address_of(self, ref: ArrayRef, index: Index) -> Address:
        """Flat address that ``ref`` touches at iteration ``index``."""
        return self.flatten(ref.array, ref.element(index))

    def statement(self, sid: str) -> Statement:
        """Look a statement up by id."""
        for stmt in self.body:
            if stmt.sid == sid:
                return stmt
        raise KeyError(f"no statement {sid!r} in loop {self.name!r}")

    def position(self, sid: str) -> int:
        """Textual position of a statement in the body (0-based)."""
        for position, stmt in enumerate(self.body):
            if stmt.sid == sid:
                return position
        raise KeyError(f"no statement {sid!r} in loop {self.name!r}")

    # ------------------------------------------------------------------
    # lowering and sequential reference execution
    # ------------------------------------------------------------------

    def lowered(self) -> Tuple[LoweredRow, ...]:
        """Every iteration in sequential order (row ``k`` is lpid
        ``k + 1``), with each executed statement's addresses, cost and
        tag.

        The one place guards, process ids and subscripts are evaluated;
        every consumer reads these rows.  Kept on the loop, so it lives
        and dies with the loop.
        """
        rows = self.__dict__.get("_lowered")
        if rows is None:
            rows = self.__dict__["_lowered"] = self._lower()
        return rows

    def _affine(self, ref: ArrayRef) -> Tuple[str, int, Tuple[int, ...]]:
        """``ref`` strength-reduced to ``(array, base, strides)``: at
        iteration ``index`` it touches flat element ``base +
        sum(strides[k] * index[k])``.

        Row-major flattening of affine subscripts is affine in the
        index, so ``base`` is the flat index at the origin and
        ``strides[k]`` the step to unit vector ``k``.  Evaluating there
        raises :meth:`address_of`'s arity and shape errors for a ref that
        does not fit the loop or its array.
        """
        origin = (0,) * self.depth
        _array, base = self.flatten(ref.array, ref.element(origin))
        return ref.array, base, tuple(
            self.flatten(ref.array, ref.element(
                origin[:k] + (1,) + origin[k + 1:]))[1] - base
            for k in range(self.depth))

    def _lower(self) -> Tuple[LoweredRow, ...]:
        #: array -> flat index -> its one address tuple, while lowering
        interned: Dict[str, Dict[int, Address]] = {}

        def forms(refs: Tuple[ArrayRef, ...]) -> tuple:
            return tuple((interned.setdefault(array, {}), array, base,
                          strides)
                         for array, base, strides in map(self._affine, refs))

        def addresses(refs: tuple, index: Index) -> Tuple[Address, ...]:
            found = []
            for table, array, base, strides in refs:
                flat = base + sum(map(mul, strides, index))
                addr = table.get(flat)
                if addr is None:
                    addr = table[flat] = (array, flat)
                found.append(addr)
            return tuple(found)

        body = [(stmt, forms(stmt.reads), forms(stmt.writes))
                for stmt in self.body]
        return tuple(
            LoweredRow(index, lpid, tuple(
                LoweredStatement(stmt.sid, addresses(reads, index),
                                 addresses(writes, index),
                                 stmt.cost_at(index), (stmt.sid, lpid))
                if stmt.executes_at(index) else None
                for stmt, reads, writes in body))
            for lpid, index in enumerate(self.iteration_space(), 1))

    def execute_sequential(
            self, initial: Optional[Dict[Address, Any]] = None
    ) -> Tuple[Dict[Address, Any], Dict[Tuple[str, int], List[Any]]]:
        """Run the loop sequentially; return (final memory, reads by tag).

        Tags are ``(sid, lpid)``.  This is the semantics every
        synchronization scheme must preserve.
        """
        memory: Dict[Address, Any] = dict(initial or {})
        reads_by_tag: Dict[Tuple[str, int], List[Any]] = {}
        for row in self.lowered():
            for stmt in row.statements:
                if stmt is None:
                    continue
                values = [memory.get(addr) for addr in stmt.reads]
                reads_by_tag[stmt.tag] = values
                result = mix(stmt.sid, row.lpid, values)
                for addr in stmt.writes:
                    memory[addr] = result
        return memory, reads_by_tag

    def serial_cycles(self, per_access: int = 0) -> int:
        """Computation cycles of a one-processor execution (lower bound
        used for speedup baselines); ``per_access`` adds a fixed cost per
        memory reference."""
        return sum(stmt.cost
                   + per_access * (len(stmt.reads) + len(stmt.writes))
                   for row in self.lowered() for stmt in row.statements
                   if stmt is not None)
