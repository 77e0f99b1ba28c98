"""Sparse matrices over exact polynomials.

A matrix stores, for each row, a {column: entry} map of its nonzero
entries only; the paper's pairs are sparse (the standard method puts
exactly k nonzeros in each row of a size-2^(k-1) pair), so every
operation below walks the stored nonzeros and never the n^2 slots.
Row maps are never mutated once a matrix is built: values are immutable
after construction and operations are pure.

`mat_mul`, which every exact check runs, multiplies over packed
exponents: per call, each monomial's exponent vector becomes one int in
a mixed radix whose digit for a variable is wide enough to hold the sum
of the two factors' highest exponents, so multiplying two monomials is
one integer addition and no product can carry into the next digit.
Coefficients are scaled to ints by a common denominator, so an output
row accumulates in one int-keyed dict of int sums.

A pipeline pair's slots share a few entry objects (`kron` and negation
compute each distinct entry once), so the operations that make or read
entries work once per distinct object, through a memo keyed by id and
local to the call: `mat_mul` packs each entry object once, `kron`
multiplies each pair of objects once and reuses an object multiplied by
the constant one, and negation and `texts` treat each object once.
Every entry of a pipeline pair is a one-term polynomial, so each product
`kron` computes is one exponent-key merge and one coefficient product
(the one-term path of `Polynomial.__mul__`); `kron` and negation fill
their rows in one plain loop over the slots, with no call per slot.
`block2x2` writes each output row once, from one row of each block in
its block row; a block may be a polynomial p standing for p times the
identity, so a standard step builds no scalar matrix.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NoReturn, Sequence, TypeVar

# mat_mul reads and builds term dicts directly (see Polynomial._terms).
from .poly import Coeff, ExpKey, Polynomial, _coeff, _wrap, parse_polynomial


class MatrixError(ValueError):
    """Shape or construction error for polynomial matrices."""


_ZERO = Polynomial.zero()
_ONE = Polynomial.const(1)

RowMap = dict[int, Polynomial]
T = TypeVar("T")

_denominator = attrgetter("denominator")


class PolyMatrix:
    """Immutable rows x cols matrix of canonical polynomials, stored as a
    tuple of per-row {column: nonzero entry} maps (`row_maps`)."""

    __slots__ = ("rows", "cols", "row_maps")

    def __init__(self, entries: Sequence[Sequence[Polynomial]], rows: int | None = None, cols: int | None = None):
        """Build from a dense grid of entries; zeros are not stored."""
        grid = [tuple(row) for row in entries]
        if rows is None:
            rows = len(grid)
        if cols is None:
            cols = len(grid[0]) if grid else 0
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise MatrixError("entry grid does not match declared shape")
        _init(self, rows, cols, tuple({j: e for j, e in enumerate(row) if e} for row in grid))

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @property
    def entries(self) -> tuple[tuple[Polynomial, ...], ...]:
        """Dense read-only view, built on each access."""
        return tuple(tuple(row.get(j, _ZERO) for j in range(self.cols)) for row in self.row_maps)

    def nonzeros(self) -> Iterator[tuple[int, int, Polynomial]]:
        """The stored entries as (row, column, entry)."""
        for i, row in enumerate(self.row_maps):
            for j, e in row.items():
                yield i, j, e

    def __getitem__(self, idx: tuple[int, int]) -> Polynomial:
        i, j = idx
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.cols} columns")
        return self.row_maps[i].get(j, _ZERO)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.row_maps == other.row_maps
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, frozenset(self.nonzeros())))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "PolyMatrix":
        out: list[RowMap] = [{} for _ in range(self.cols)]
        for i, j, e in self.nonzeros():
            out[j][i] = e
        return _sparse(out, self.cols, self.rows)

    def __neg__(self) -> "PolyMatrix":
        """Negates each distinct entry object once, in one pass over the
        slots; the slots that shared it share its negation."""
        negated: dict[int, Polynomial] = {}
        out = []
        for row in self.row_maps:
            new = {}
            for j, e in row.items():
                n = negated.get(id(e))
                if n is None:
                    n = negated[id(e)] = -e
                new[j] = n
            out.append(new)
        return _sparse(out, self.rows, self.cols)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MatrixError(f"shape mismatch for add: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        out = []
        for ra, rb in zip(self.row_maps, other.row_maps):
            row = dict(ra)
            for j, e in rb.items():
                row[j] = row.get(j, _ZERO) + e
            out.append({j: e for j, e in row.items() if e})
        return _sparse(out, self.rows, self.cols)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        return mat_mul(self, other)

    def texts(self) -> list[list[str]]:
        """The dense grid of entry texts, "0" where no entry is stored.
        Walks the stored nonzeros only, and calls str once per distinct
        entry object: a pair's rows share a few polynomial objects."""
        text = _once_per_object(str)
        out = []
        for row in self.row_maps:
            line = ["0"] * self.cols
            for j, e in row.items():
                line[j] = text(e)
            out.append(line)
        return out

    def render(self) -> str:
        """Text form: rows on lines, entries comma-separated."""
        return "\n".join(", ".join(row) for row in self.texts())

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols})"


def _once_per_object(op: Callable[[Polynomial], T]) -> Callable[[Polynomial], T]:
    """op, evaluated once per distinct argument object and shared by later
    calls with the same object.  Keyed by id, so the memo must not outlive
    the objects passed to it: use one per call of an operation."""
    memo: dict[int, T] = {}

    def once(x: Polynomial) -> T:
        y = memo.get(id(x))
        if y is None:
            y = memo[id(x)] = op(x)
        return y

    return once


def _init(m: PolyMatrix, rows: int, cols: int, row_maps: tuple[RowMap, ...]) -> None:
    object.__setattr__(m, "rows", rows)
    object.__setattr__(m, "cols", cols)
    object.__setattr__(m, "row_maps", row_maps)


def _sparse(row_maps: Iterable[RowMap], rows: int, cols: int) -> PolyMatrix:
    """A matrix from row maps that already hold only nonzero entries."""
    if rows < 0 or cols < 0:
        raise MatrixError(f"negative matrix dimension {rows}x{cols}")
    m = PolyMatrix.__new__(PolyMatrix)
    _init(m, rows, cols, tuple(row_maps))
    return m


def _shift(row: RowMap, offset: int) -> RowMap:
    return {j + offset: e for j, e in row.items()}


def from_strings(rows: Iterable[list[str]]) -> PolyMatrix:
    """Parse a grid of polynomial texts, given as rows that are lists of
    strings of one length, into its row maps in one pass.

    "0" slots are skipped without being parsed; every other distinct text
    is parsed once per call and its slots share the (immutable) result,
    since most entries of a serialized pair are "0" or repeats of a few
    polynomials.  A text that parses to zero (" 0", "x - x") stores
    nothing.  Raises MatrixError for a row that is not a list of strings
    or whose length differs from the first row's.
    """
    parsed: dict[str, Polynomial] = {}

    def entry(text: str) -> Polynomial:
        if type(text) is not str:
            _not_text()
        p = parsed.get(text)
        if p is None:
            p = parsed[text] = parse_polynomial(text)
        return p

    out: list[RowMap] = []
    cols = None
    for row in rows:
        if type(row) is not list:
            _not_text()
        if cols is None:
            cols = len(row)
        elif len(row) != cols:
            raise MatrixError(f"row {len(out)} has {len(row)} entries, row 0 has {cols}")
        out.append({j: p for j, text in enumerate(row) if text != "0" and (p := entry(text))})
    return _sparse(out, len(out), cols or 0)


def _not_text() -> NoReturn:
    raise MatrixError("a matrix must be a list of rows of strings")


def identity(n: int) -> PolyMatrix:
    return scalar_matrix(_ONE, n)


def zeros(rows: int, cols: int) -> PolyMatrix:
    return _sparse(({} for _ in range(rows)), rows, cols)


def scalar_matrix(p: Polynomial, n: int) -> PolyMatrix:
    """n x n matrix with p on the diagonal, zero elsewhere."""
    return _sparse(({i: p} if p else {} for i in range(n)), n, n)


def mat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Exact product over packed exponents and integer coefficients.

    Per call, each variable v gets a mixed-radix digit of width
    maxexp_a(v) + maxexp_b(v) + 1, and a monomial's exponents are packed
    into one int, digit by digit.  A digit of a product term is the sum of
    one digit from a and one from b, so it never reaches its width: no
    carry crosses digits, and adding two packed keys packs the product
    monomial.  Distinct monomials thus keep distinct keys.  The entries
    of b also carry their column j as the top digit (j * radix + packed).
    Coefficients are scaled to ints by each matrix's denominator lcm, so
    each output row is one dict from packed key to int sum.

    The setup costs what the distinct entry objects cost, not what the
    stored nonzeros do: each distinct object of a and of b is profiled
    and packed once per call (a pipeline pair's slots share a few
    objects), and every slot that holds it reads its packed term list.
    Only the nonzero sums are decoded, each distinct exponent key and
    each distinct scaled sum once per call.
    """
    if a.cols != b.rows:
        raise MatrixError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    objects_a, objects_b = _objects(a), _objects(b)
    keys_a, top_a, scale_a = _profile(objects_a.values())
    keys_b, top_b, scale_b = _profile(objects_b.values())
    digits = [(v, top_a.get(v, 0) + top_b.get(v, 0) + 1) for v in sorted(top_a.keys() | top_b.keys())]
    place: dict[str, int] = {}
    radix = 1
    for v, width in digits:
        place[v] = radix
        radix *= width
    packs = {k: sum(x * place[v] for v, x in k) for k in keys_a | keys_b}
    packed_a = {i: _packed(e, packs, scale_a) for i, e in objects_a.items()}
    packed_b = {i: _packed(e, packs, scale_b) for i, e in objects_b.items()}
    b_rows = [
        [(j * radix + key, c) for j, e in row.items() for key, c in packed_b[id(e)]]
        for row in b.row_maps
    ]
    scale = scale_a * scale_b
    decoded: dict[int, ExpKey] = {}
    coeffs: dict[int, Coeff] = {}
    out = []
    for arow in a.row_maps:
        acc: dict[int, int] = {}
        get = acc.get
        for k, aik in arow.items():
            brow = b_rows[k]
            for ka, ca in packed_a[id(aik)]:
                for kb, cb in brow:
                    key = ka + kb
                    acc[key] = get(key, 0) + ca * cb
        terms: dict[int, dict[ExpKey, Coeff]] = {}
        for key, c in acc.items():
            if not c:
                continue
            j, packed = divmod(key, radix)
            exps = decoded.get(packed)
            if exps is None:
                exps = decoded[packed] = _unpack(packed, digits)
            if scale != 1:
                q = coeffs.get(c)
                if q is None:
                    q = coeffs[c] = _coeff(Fraction(c, scale))
                c = q
            if j not in terms:
                terms[j] = {}
            terms[j][exps] = c
        out.append({j: _wrap(t) for j, t in terms.items()})
    return _sparse(out, a.rows, b.cols)


def _objects(m: PolyMatrix) -> dict[int, Polynomial]:
    """The distinct entry objects of m, by id.  Keyed by id, so the
    result must not outlive m: use one per call of an operation."""
    return {id(e): e for row in m.row_maps for e in row.values()}


def _profile(entries: Iterable[Polynomial]) -> tuple[set[ExpKey], dict[str, int], int]:
    """The distinct exponent keys of the entries' terms, the highest
    exponent of each variable in them, and the lcm of the coefficient
    denominators."""
    keys: set[ExpKey] = set()
    denominators = {1}
    for e in entries:
        keys.update(e._terms)
        denominators.update(map(_denominator, e._terms.values()))
    top: dict[str, int] = {}
    for k in keys:
        for v, x in k:
            if x > top.get(v, 0):
                top[v] = x
    return keys, top, lcm(*denominators)


def _packed(p: Polynomial, packs: dict[ExpKey, int], scale: int) -> list[tuple[int, int]]:
    """The terms of p as (packed exponents, coefficient * scale), all ints."""
    t = p._terms
    if scale == 1:
        return list(zip(map(packs.__getitem__, t), t.values()))
    return [(packs[k], c.numerator * (scale // c.denominator)) for k, c in t.items()]


def _unpack(packed: int, digits: list[tuple[str, int]]) -> ExpKey:
    """The exponent key whose packed form is packed (lowest digit first)."""
    exps = []
    for v, width in digits:
        if not packed:
            break
        packed, x = divmod(packed, width)
        if x:
            exps.append((v, x))
    return tuple(exps)


def kron(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Kronecker product with row-major blocks: block (i,j) is a[i,j] * b.

    Each product of an entry object of a with one of b is computed once
    per call and shared by every slot that holds it, so the result holds
    at most distinct(a) * distinct(b) entry objects, however many
    nonzeros.  The products of each distinct object of a are kept in one
    dict keyed by the id of b's object, and each output row is filled in
    a plain loop over one row of a and one row of b.  A product with the
    constant one is the other entry object itself, not a copy:
    kron(a, identity(m)) and kron(identity(n), b) multiply no polynomial
    and hold exactly the entry objects of a or b (where such an entry is
    one too, either one may be held).  Products of nonzero polynomials
    are nonzero, so nothing is filtered.
    """
    # id(x) -> {id(y): x * y}; a and b hold every x and y, so no id is reused
    products: dict[int, dict[int, Polynomial]] = {}
    out: list[RowMap] = []
    for arow in a.row_maps:
        blocks = []
        for j, x in arow.items():
            memo = products.get(id(x))
            if memo is None:
                memo = products[id(x)] = {}
            blocks.append((j * b.cols, x, memo))
        for brow in b.row_maps:
            row = {}
            for offset, x, memo in blocks:
                for q, y in brow.items():
                    p = memo.get(id(y))
                    if p is None:
                        p = memo[id(y)] = y if x.is_one() else x if y.is_one() else x * y
                    row[offset + q] = p
            out.append(row)
    return _sparse(out, a.rows * b.rows, a.cols * b.cols)


def direct_sum(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Block diagonal [[a, 0], [0, b]]; empty blocks are dropped."""
    return _sparse(
        a.row_maps + tuple(_shift(row, a.cols) for row in b.row_maps),
        a.rows + b.rows,
        a.cols + b.cols,
    )


def block2x2(
    a: PolyMatrix | Polynomial,
    b: PolyMatrix | Polynomial,
    c: PolyMatrix | Polynomial,
    d: PolyMatrix | Polynomial,
) -> PolyMatrix:
    """Assemble [[a, b], [c, d]] from conformable blocks.

    A block may be a Polynomial p, standing for p times the identity: it
    is sized by the matrices beside it, so the other block of its block
    row and of its block column must be matrices, and the slot must be
    square.  Each output row is one dict, the left block's row copied
    and then updated with the right block's row at shifted columns; a
    scalar block adds its one diagonal entry (none when p is zero).
    """
    sa, sb, sc, sd = (isinstance(x, Polynomial) for x in (a, b, c, d))
    # scalars on one diagonal only: each has a matrix beside it both ways
    if (sa or sd) and (sb or sc):
        raise MatrixError("a block row or block column of two scalar blocks has no size")
    top, bottom = (b if sa else a).rows, (d if sc else c).rows
    left, right = (c if sa else a).cols, (d if sb else b).cols
    slots = ((a, sa, top, left), (b, sb, top, right), (c, sc, bottom, left), (d, sd, bottom, right))
    for block, scalar, rows, cols in slots:
        # a scalar block fits a square slot
        if ((rows, rows) if scalar else (block.rows, block.cols)) != (rows, cols):
            raise MatrixError("non-conformable blocks")
    return _sparse(_block_rows(a, b, top, left) + _block_rows(c, d, bottom, left), top + bottom, left + right)


def _block_rows(
    left: PolyMatrix | Polynomial, right: PolyMatrix | Polynomial, n: int, offset: int
) -> list[RowMap]:
    """The n rows of the block row [left, right], right's columns shifted
    by offset."""
    if isinstance(left, Polynomial):
        out = [{i: left} for i in range(n)] if left else [{} for _ in range(n)]
    else:
        out = [row.copy() for row in left.row_maps]
    if isinstance(right, Polynomial):
        if right:
            for i, row in enumerate(out, offset):
                row[i] = right
    else:
        # a loop of stores beats building a shifted dict or a zip/map
        # pass for the few entries of a pair's row
        for row, r in zip(out, right.row_maps):
            for j, e in r.items():
                row[j + offset] = e
    return out


def shuffle_matrix(m: int, n: int) -> PolyMatrix:
    """Perfect shuffle permutation matrix S_{m,n} of size mn x mn.

    Satisfies B (x) A = S_{r,p} (A (x) B) S_{s,q}^T for A of size p x q
    and B of size r x s, and S S^T = I.
    """
    if m < 1 or n < 1:
        raise MatrixError("shuffle dimensions must be positive")
    # S_{m,n} = sum_i e_i^T (x) I_n (x) e_i puts a 1 at (i*n + a, a*m + i).
    return _sparse(({a * m + i: _ONE} for i in range(m) for a in range(n)), m * n, m * n)

