"""The instance types, their JSON form, and the two shared cost objectives.

Numeric conventions, fixed here so every module agrees:

* Costs and masses are exact rationals: ``int`` where possible, otherwise
  ``fractions.Fraction``, normalised where they are made, by the value types
  and pricing functions; writers print them as they are. Floats supplied by
  callers are converted to their exact binary value, so all comparisons and
  tie-breaks are deterministic. ``_as_epsilon`` alone reads epsilon.
* The sorting-IO term uses base-2 logarithms and is computed in binary64;
  ``0*log2(0)`` and ``1*log2(1)`` are both 0 (an empty or singleton interval
  costs nothing to sort). Comparisons that mix the IO term use a documented
  tolerance of 1e-9 where a tolerance is needed at all.
* Machines are numbered 1..p in every public mapping and error message;
  matrix storage is row-major with machine i on row i-1.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from itertools import chain
from typing import Mapping, Sequence, Union

from .errors import InstanceError, ParameterError

Rational = Union[int, Fraction]

#: Tolerance for comparisons that involve the binary64 IO term.
FLOAT_TOLERANCE = 1e-9


def as_exact(value: object) -> Rational:
    """Convert a number to its exact rational representation.

    Integers pass through, fractions are reduced (and collapse to ``int``
    when integral), floats become the exact rational they denote, and a
    string must read "num/den", the spelling ``_exact_out`` gives a rational
    that no float equals.
    """
    if isinstance(value, bool):
        raise InstanceError("booleans are not valid numeric entries")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if re.fullmatch(r"-?[0-9]+/0*[1-9][0-9]*", value) is None:
            raise InstanceError(f"a numeric string must read \"num/den\", got {value!r}")
        value = Fraction(value)
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise InstanceError(f"non-finite numeric entry: {value!r}")
        value = Fraction(value)
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise InstanceError(f"unsupported numeric type: {type(value).__name__}")


def _exact_out(value: Rational) -> int | float | str:
    """A normalised number as JSON that ``as_exact`` reads back as the same
    number: an int, a float when it equals the value exactly, or "num/den"."""
    if isinstance(value, int):
        return value
    try:
        if float(value) == value:
            return float(value)
    except OverflowError:
        pass
    return f"{value.numerator}/{value.denominator}"


def _as_epsilon(epsilon) -> Fraction:
    """The epsilon rule: a number, or text that ``Fraction`` reads, in (0, 1/2)."""
    try:
        eps = Fraction(epsilon) if isinstance(epsilon, str) else Fraction(as_exact(epsilon))
    except (ValueError, ZeroDivisionError):  # text such as "abc" or "1/0" names no number
        raise ParameterError(f"epsilon must lie in (0, 1/2), got {epsilon}") from None
    if not 0 < eps < Fraction(1, 2):
        raise ParameterError(f"epsilon must lie in (0, 1/2), got {eps}")
    return eps


def _matrix_out(entries) -> list[list[int | float | str]]:
    return [[_exact_out(v) for v in row] for row in entries]


def _exact_square(rows: Sequence[Sequence[object]], what: str,
                  min_p: int = 1) -> tuple[tuple[Rational, ...], ...]:
    """Validate and convert a square matrix of numbers.

    A row of plain ``int`` entries (``bool`` excluded) is already exact and
    is copied as it is; any other row goes through ``as_exact`` entry by entry.
    """
    if not isinstance(rows, (list, tuple)):
        raise InstanceError(f"{what} must be a list of rows, got {rows!r}")
    p = len(rows)
    if p < min_p:
        raise InstanceError(f"{what} must be at least {min_p}-by-{min_p}, got {p}-by-{p}")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise InstanceError(f"{what} row {i + 1} is not a list: {row!r}")
        if len(row) != p:
            raise InstanceError(
                f"{what} row {i + 1} has {len(row)} entries, expected {p}")
        if set(map(type, row)) <= {int}:
            out.append(tuple(row))
        else:
            out.append(tuple(as_exact(x) for x in row))
    return tuple(out)


def _check_ints(values: tuple, what: str) -> None:
    """Raise on the first entry that is a bool or not an int; int subclasses
    other than bool pass."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InstanceError(f"{what} {values}: entry {value!r} is not an integer")


def _check_non_negative(entries: tuple[tuple[Rational, ...], ...], name: str) -> None:
    """Raise on the first negative entry in row-major order."""
    for i, row in enumerate(entries):
        if min(row) < 0:
            j = next(j for j, value in enumerate(row) if value < 0)
            raise InstanceError(f"{name}[{i + 1}][{j + 1}] is negative: {row[j]}")


def _check_costs(entries: tuple[tuple[Rational, ...], ...], name: str) -> None:
    """Raise on the first entry, in row-major order, that is not positive off
    the diagonal, or negative on it."""
    for i, row in enumerate(entries):
        if min(row[:i] + row[i + 1:]) > 0 and row[i] >= 0:
            continue  # the common case: one check per row, no entry loop
        for j, value in enumerate(row):
            if i == j:
                if value < 0:
                    raise InstanceError(
                        f"{name}[{i + 1}][{j + 1}] is negative: {value}")
            elif value <= 0:
                raise InstanceError(
                    f"{name}[{i + 1}][{j + 1}] must be positive off the diagonal, got {value}")


class Value:
    """Base of the immutable value types.

    Each subclass names its fields in ``_fields`` and lists its
    constructor's arguments, in order, in ``__slots__``. Its ``__init__``
    checks and normalises the arguments, then passes them to this one,
    which fills the slots in that order and raises ``ValueError`` on a count
    mismatch. A derived field, such as a total, is a read-only property
    named in ``_fields`` but not in ``__slots__``. Equality and hashing
    compare the fields within one class only, ``repr`` shows them as keyword
    arguments, and assigning or deleting any attribute raises
    ``AttributeError``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the slots list the constructor's arguments in order
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class CostMatrix(Value):
    """Per-unit communication costs between the p physical machines.

    ``entries[i-1][j-1]`` is the cost of moving one unit of data from
    machine i to machine j. Off the diagonal every entry is strictly
    positive, so that the ratio of extreme link costs is well defined; on
    it, non-negative. ``GopInstance`` requires a zero diagonal (local data
    is free); the bipartite-tour reduction prices self-transfers.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Sequence[Sequence[Rational]]) -> None:
        entries = _exact_square(entries, "cost matrix", min_p=2)
        _check_costs(entries, "cost")
        super().__init__(entries)

    @property
    def p(self) -> int:
        return len(self.entries)

    def cost(self, i: int, j: int) -> Rational:
        """Cost per unit from machine i to machine j (both 1-based)."""
        return self.entries[i - 1][j - 1]

    def off_diagonal(self) -> tuple[Rational, ...]:
        return tuple(chain.from_iterable(row[:i] + row[i + 1:]
                                         for i, row in enumerate(self.entries)))


class TransferMatrix(Value):
    """Data volumes keyed by (physical source, virtual destination).

    ``entries[i-1][j-1]`` is the amount of data sitting on physical machine
    i that belongs to virtual machine j. All entries are non-negative.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Sequence[Sequence[Rational]]) -> None:
        entries = _exact_square(entries, "transfer matrix", min_p=1)
        _check_non_negative(entries, "transfer")
        super().__init__(entries)

    @property
    def p(self) -> int:
        return len(self.entries)

    def amount(self, i: int, j: int) -> Rational:
        """Volume from physical machine i destined for virtual machine j."""
        return self.entries[i - 1][j - 1]

    def column_sums(self) -> tuple[Rational, ...]:
        return tuple(map(sum, zip(*self.entries)))

    @property
    def total_mass(self) -> Rational:
        return sum(sum(row) for row in self.entries)


class DrpInstance(Value):
    """A transfer matrix and a cost matrix of matching size."""

    __slots__ = _fields = ("transfer", "cost")

    def __init__(self, transfer: TransferMatrix, cost: CostMatrix) -> None:
        if transfer.p != cost.p:
            raise InstanceError(
                f"dimension mismatch: transfer p={transfer.p}, cost p={cost.p}")
        super().__init__(transfer, cost)

    @property
    def p(self) -> int:
        return self.transfer.p


class TspFbInstance(Value):
    """Edge weights of a complete bipartite graph K_{n,n}.

    ``weights[i-1][j-1]`` is the weight of the edge between left vertex i and
    right vertex j. Off-diagonal weights must be positive; diagonal weights
    may be zero (they map onto free local transfers under the reduction).
    """

    __slots__ = _fields = ("weights",)

    def __init__(self, weights: Sequence[Sequence[Rational]]) -> None:
        weights = _exact_square(weights, "bipartite tour instance", min_p=2)
        _check_costs(weights, "weights")
        super().__init__(weights)

    @property
    def n(self) -> int:
        return len(self.weights)


class Assignment(Value):
    """A bijection from virtual machines to physical machines.

    ``mapping[j-1]`` is the 1-based physical machine hosting virtual
    machine j.
    """

    __slots__ = _fields = ("mapping",)

    def __init__(self, mapping: Sequence[int]) -> None:
        mapping = tuple(mapping)
        p = len(mapping)
        if p < 1:
            raise InstanceError("assignment must cover at least one machine")
        _check_ints(mapping, "mapping")
        if sorted(mapping) != list(range(1, p + 1)):
            raise InstanceError(
                f"mapping {mapping} is not a permutation of 1..{p}")
        super().__init__(mapping)

    @property
    def p(self) -> int:
        return len(self.mapping)

    def host(self, j: int) -> int:
        """Physical machine hosting virtual machine j (1-based)."""
        return self.mapping[j - 1]

    @staticmethod
    def identity(p: int) -> "Assignment":
        return Assignment(tuple(range(1, p + 1)))


def _distinct(subsets: tuple[tuple[int, ...], ...], n: int) -> bool:
    """Whether the n ints in ``subsets``, n >= 1, are pairwise distinct."""
    held = [subset for subset in subsets if subset]
    lo, hi = min(map(min, held)), max(map(max, held))
    if hi - lo >= 32 * n:
        return len(set(chain.from_iterable(subsets))) == n
    marks = bytearray(hi - lo + 1)
    for value in chain.from_iterable(subsets):
        marks[value - lo] = 1
    return marks.count(1) == n


class SortInstance(Value):
    """n >= p distinct integers spread over p >= 2 machines.

    ``subsets[i-1]`` is machine i's local data; a machine may hold none.
    Elements must be distinct across the whole instance; interval counting
    below silently assumes it, so duplicates are rejected at construction,
    by ``_distinct``: one mark byte per value in [min, max] when that span
    is at most 32 values an element, a set of the values otherwise.
    """

    __slots__ = _fields = ("subsets",)

    def __init__(self, subsets: Sequence[Sequence[int]]) -> None:
        if not isinstance(subsets, (list, tuple)):
            raise InstanceError(f"subsets must be a list of lists, got {subsets!r}")
        for i, subset in enumerate(subsets):
            if not isinstance(subset, (list, tuple)):
                raise InstanceError(f"subset {i + 1} is not a list: {subset!r}")
        subsets = tuple(map(tuple, subsets))
        n = sum(map(len, subsets))
        SortInstance.check_sizes(n, len(subsets))
        # builtins check the common case; the loop below only names the
        # first bad element, or passes int subclasses other than bool
        if (not set(map(type, chain.from_iterable(subsets))) <= {int}
                or not _distinct(subsets, n)):
            seen: set[int] = set()
            for i, subset in enumerate(subsets):
                for value in subset:
                    if isinstance(value, bool) or not isinstance(value, int):
                        raise InstanceError(
                            f"subset {i + 1} holds a non-integer value: {value!r}")
                    if value in seen:
                        raise InstanceError(
                            f"duplicate element {value} (subset {i + 1}); elements must be distinct")
                    seen.add(value)
        super().__init__(subsets)

    @staticmethod
    def check_sizes(n: int, p: int) -> None:
        """The size rules: p >= 2 machines and n >= p elements, so that
        every machine can hold one. A generator checks them before it
        draws."""
        if p < 2:
            raise InstanceError(f"a sort instance needs p > 1 machines, got p={p}")
        if n < p:
            raise InstanceError(f"need at least one element per machine: n={n}, p={p}")

    @property
    def p(self) -> int:
        return len(self.subsets)

    @property
    def n(self) -> int:
        return sum(len(s) for s in self.subsets)

    def values(self) -> tuple[int, ...]:
        """All elements in ascending order."""
        return tuple(sorted(chain.from_iterable(self.subsets)))


class GopInstance(Value):
    """A sort instance plus the communication cost matrix of its cluster,
    whose diagonal is zero: a machine's local data is free."""

    __slots__ = _fields = ("inst", "cost")

    def __init__(self, inst: SortInstance, cost: CostMatrix) -> None:
        for i, row in enumerate(cost.entries):
            if row[i] != 0:
                raise InstanceError(
                    f"cost[{i + 1}][{i + 1}] must be 0 on the diagonal, got {row[i]}")
        if inst.p != cost.p:
            raise InstanceError(
                f"dimension mismatch: instance p={inst.p}, cost p={cost.p}")
        super().__init__(inst, cost)

    @property
    def p(self) -> int:
        return self.inst.p

    @property
    def n(self) -> int:
        return self.inst.n


class Graph(Value):
    """An undirected weighted graph on vertices 1..n_vertices, with at least
    one edge and no edge twice, in either direction. Each edge u < v is keyed
    by the one int ``u * (n_vertices + 1) + v``, which no other pair shares,
    and marked in a bitmap of (n_vertices + 1)**2 bits when that is at most
    512 bits an edge, otherwise in a dict of the bitmap's marked bytes. A
    caller's plain tuple edge with an int weight is kept, not copied."""

    __slots__ = _fields = ("n_vertices", "edges")

    def __init__(self, n_vertices: int,
                 edges: Sequence[tuple[int, int, Rational]]) -> None:
        # vertices are plain ints, bool excluded
        if type(n_vertices) is not int:
            raise InstanceError(f"n_vertices must be an integer, got {n_vertices!r}")
        if n_vertices < 1:
            raise InstanceError(f"n_vertices must be >= 1, got {n_vertices}")
        if not isinstance(edges, (list, tuple)):
            raise InstanceError(f"graph edges must be a list, got {edges!r}")
        if not edges:
            raise InstanceError("graph has no edges")
        width = n_vertices + 1
        # the bitmap over the keys 0..width**2 - 1 where it is at most 512
        # bits an edge, else only its marked bytes, by byte index
        marks = (bytearray(width * width + 7 >> 3) if width * width <= 512 * len(edges)
                 else defaultdict(int))
        checked = []
        for k, edge in enumerate(edges):
            if not isinstance(edge, (list, tuple)) or len(edge) != 3:
                raise InstanceError(f"edge {k + 1} is not a [u, v, weight] list: {edge!r}")
            u, v, w = edge
            if type(u) is not int or type(v) is not int:
                raise InstanceError(
                    f"edge {k + 1} endpoints ({u!r},{v!r}) must be integers")
            if not (1 <= u <= n_vertices) or not (1 <= v <= n_vertices):
                raise InstanceError(
                    f"edge {k + 1} endpoints ({u},{v}) out of range 1..{n_vertices}")
            if u == v:
                raise InstanceError(f"edge {k + 1} is a self-loop at {u}")
            key = u * width + v if u < v else v * width + u
            byte, bit = key >> 3, 1 << (key & 7)
            duplicate = marks[byte] & bit
            marks[byte] |= bit
            if duplicate:
                raise InstanceError(f"duplicate undirected edge ({u},{v})")
            checked.append(edge if type(edge) is tuple and type(w) is int
                           else (u, v, w if type(w) is int else as_exact(w)))
        super().__init__(n_vertices, tuple(checked))

    @property
    def n_edges(self) -> int:
        return len(self.edges)


class GopSolution(Value):
    """A splitter choice plus machine assignment with its cost breakdown.

    ``total_cost`` is derived: ``float(comm_cost) + io_cost``.
    """

    __slots__ = ("splitters", "assignment", "comm_cost", "io_cost")
    _fields = (*__slots__, "total_cost")

    def __init__(self, splitters: Sequence[int], assignment: Assignment,
                 comm_cost: Rational, io_cost: float) -> None:
        super().__init__(_check_splitters(splitters, assignment.p), assignment,
                         as_exact(comm_cost), io_cost)

    @property
    def total_cost(self) -> float:
        return float(self.comm_cost) + self.io_cost


def drp_cost(transfer: TransferMatrix, cost: CostMatrix, assignment: Assignment) -> Rational:
    """Total communication cost of hosting virtual machine j on ``assignment.host(j)``.

    Sums ``transfer[i][j] * cost[i][host(j)]`` over all source machines i and
    virtual machines j. Exact and non-negative.
    """
    p = transfer.p
    if cost.p != p or assignment.p != p:
        raise InstanceError(
            f"dimension mismatch: transfer p={p}, cost p={cost.p}, assignment p={assignment.p}")
    total: Rational = 0
    for i in range(p):
        row = transfer.entries[i]
        cost_row = cost.entries[i]
        for j in range(p):
            total += row[j] * cost_row[assignment.mapping[j] - 1]
    return as_exact(total)


def _check_splitters(splitters: Sequence[int], p: int) -> tuple[int, ...]:
    """The splitter rule: p - 1 strictly ascending values."""
    splitters = tuple(splitters)
    _check_ints(splitters, "splitters")
    if len(splitters) != p - 1:
        raise InstanceError(
            f"expected {p - 1} splitters for p={p}, got {len(splitters)}")
    if any(a >= b for a, b in zip(splitters, splitters[1:])):
        raise InstanceError(f"splitters {splitters} are not strictly ascending")
    return splitters


def _equal_rank(values: Sequence[int], p: int) -> tuple[int, ...]:
    """The equal-rank rule: from ascending ``values``, the p - 1 elements of
    rank floor(k * len / p), 1-indexed, for k = 1..p-1. With len >= p the
    ranks are distinct and at least k, so the result is strictly ascending."""
    return tuple(values[(k * len(values)) // p - 1] for k in range(1, p))


def _interval_counts(runs: Sequence[Sequence[int]],
                     splitters: Sequence[int]) -> tuple[TransferMatrix, tuple[int, ...]]:
    """Machine i's count in (s_{j-1}, s_j] from its ascending run i:
    ``bisect_right(run, s_j) - bisect_right(run, s_{j-1})``, p(p - 1)
    bisections in all. Returns the count matrix and its column sums."""
    splitters = _check_splitters(splitters, len(runs))
    rows = []
    for run in runs:
        low, row = 0, []
        for s in splitters:
            high = bisect_right(run, s)
            row.append(high - low)
            low = high
        rows.append((*row, len(run) - low))
    transfer = TransferMatrix(tuple(rows))
    return transfer, transfer.column_sums()


def derive_transfer_and_load(inst: SortInstance,
                             splitters: Sequence[int]) -> tuple[TransferMatrix, tuple[int, ...]]:
    """Count elements per (machine, interval) for the given splitters.

    Interval j is the half-open range (splitter_{j-1}, splitter_j], with
    sentinels -inf and +inf at the ends. Returns the p-by-p count matrix and
    the per-interval loads L (its column sums), which always sum to n: the
    ``_interval_counts`` of a sorted copy of each machine's elements."""
    return _interval_counts(list(map(sorted, inst.subsets)), splitters)


def sort_io_term(loads: Sequence[int]) -> float:
    """L * log2(L) of the largest load L, the max over intervals as L * log2(L)
    grows with L; loads of 0 or 1, and no loads at all, cost 0."""
    load = max(loads, default=0)
    return load * math.log2(load) if load > 1 else 0.0


def gop_objective(g: GopInstance, splitters: Sequence[int],
                  assignment: Assignment) -> GopSolution:
    """Evaluate the joint objective: communication plus worst sorting IO.

    The communication part prices the derived transfer matrix on the
    cluster's costs under the given assignment; the IO part is
    ``sort_io_term`` over the interval loads and does not depend on the
    assignment.
    """
    # derive_transfer_and_load checks the splitter rule first
    transfer, loads = derive_transfer_and_load(g.inst, splitters)
    universe = set(chain.from_iterable(g.inst.subsets))
    for s in splitters:
        if s not in universe:
            raise InstanceError(f"splitter {s} is not an element of the instance")
    comm = drp_cost(transfer, g.cost, assignment)
    return GopSolution(splitters, assignment, comm, sort_io_term(loads))


# --- JSON form ------------------------------------------------------------

def drp_to_json(inst: DrpInstance) -> dict:
    return {"p": inst.p,
            "transfer": _matrix_out(inst.transfer.entries),
            "cost": _matrix_out(inst.cost.entries)}


def drp_from_json(data: Mapping) -> DrpInstance:
    _require(data, ("p", "transfer", "cost"), "redistribution instance")
    inst = DrpInstance(TransferMatrix(data["transfer"]), CostMatrix(data["cost"]))
    _check_size(data, "p", inst.p, "matrix size")
    return inst


def gop_to_json(g: GopInstance) -> dict:
    return {"p": g.p,
            "subsets": [list(s) for s in g.inst.subsets],
            "cost": _matrix_out(g.cost.entries)}


def gop_from_json(data: Mapping) -> GopInstance:
    _require(data, ("p", "subsets", "cost"), "sorting instance")
    g = GopInstance(SortInstance(data["subsets"]), CostMatrix(data["cost"]))
    _check_size(data, "p", g.p, "subset count")
    return g


def graph_to_json(graph: Graph) -> dict:
    return {"n": graph.n_vertices,
            "edges": [[u, v, _exact_out(w)] for u, v, w in graph.edges]}


def graph_from_json(data: Mapping) -> Graph:
    _require(data, ("n", "edges"), "graph")
    return Graph(data["n"], data["edges"])


def tspfb_to_json(tour: TspFbInstance) -> dict:
    return {"n": tour.n, "weights": _matrix_out(tour.weights)}


def tspfb_from_json(data: Mapping) -> TspFbInstance:
    _require(data, ("n", "weights"), "bipartite tour instance")
    tour = TspFbInstance(data["weights"])
    _check_size(data, "n", tour.n, "matrix size")
    return tour


def _require(data: Mapping, keys: Sequence[str], what: str) -> None:
    if not isinstance(data, Mapping):
        raise InstanceError(f"{what} must be a JSON object")
    for key in keys:
        if key not in data:
            raise InstanceError(f"{what} is missing the {key!r} field")


def _check_size(data: Mapping, key: str, size: int, what: str) -> None:
    """A size field must be a JSON integer equal to the size of the instance."""
    value = data[key]
    if type(value) is not int:
        raise InstanceError(f"field {key} must be an integer, got {value!r}")
    if value != size:
        raise InstanceError(f"field {key}={value} disagrees with {what} {size}")


def dumps_canonical(data: object) -> str:
    """Stable byte-for-byte JSON rendering (sorted keys, compact, newline)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
