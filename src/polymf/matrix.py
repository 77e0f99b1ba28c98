"""Sparse matrices over exact polynomials, over one table of entries.

A matrix stores `table`, a tuple of nonzero entries, and for each row i
the pair (columns[i], indices[i]): its nonzero columns, strictly
increasing, and the slot code of the entry at each.  Slot code 2k reads
table[k] and 2k + 1 reads -table[k]: the sign is a bit of the index, so
negating a slot is k ^ 1 and a table never lists an entry's negation.
The paper's pairs are sparse (the standard method puts exactly k
nonzeros in each row of a size-2^(k-1) pair) and their nonzeros hold a
few distinct entries, so every operation walks the stored nonzeros,
never the n^2 slots, and makes or reads each table entry once, never
once per slot.  Matrices are immutable, so they share tables and row
tuples freely.  A table may list a value twice: equality and hashing
compare the values at each slot, never codes or table order.  A reader
of values (`nonzeros`, `entries`, ==) negates an entry once per call for
each odd code the rows use, and `texts` derives the text of a negation
from its entry's.

`mat_mul`, which every exact check runs, puts its two operands on one
table and multiplies over two flat lists read by slot code: the packed
exponent key of each term and its coefficient scaled to an int, negated
at the odd code, so each term is packed once and a negation costs no
packing (an entry of several terms first splits each of its slots into
one slot per term).  It decodes each entry of a row it reads in full
where it sits, into the next table entry.  A row that holds row 0's
value alone at its own diagonal is found by subtracting row 0's sums
from its own, and takes code 0 with no readout, so a product equal to
f*I reads one row and stores f once.  Constructors and `mat_mul`
write even codes only; `from_strings` writes an odd code for a one-term
text whose sign twin it read before ("-x^2y" after "x^2y", or the
reverse), so a document's table lists one entry per value up to sign,
as a pipeline's does.
Negation negates the table and shares the rows; `kron` multiplies each
pair of used table entries once and gives each slot the xor of its two
sign bits; `block2x2` and `direct_sum` concatenate the distinct tables
of their blocks and shift the codes by twice the length of the tables
before, so blocks over one table keep it.  The two factors of a
`MatrixFactorization` index one table: its constructor moves them onto
one (`_on_one_table`) when they arrive over two, as the two Kronecker
products of a reduced or multiplicative tensor product do.  So the six
blocks of `yoshino` index one table, the entries of its two inputs, and
its negated blocks are the same codes with the bit flipped; so do the
rows of a standard step (Yoshino's product with a 1x1 pair, written
directly), whose -g and -h are the odd codes of g and h.  A fold of
steps thus keeps one short table and negates no polynomial.  A pair
read from a document arrives over one table:
`MatrixFactorization.from_dict` parses both grids in one `from_strings`
call.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add, neg
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

# mat_mul reads and builds term dicts directly (see Polynomial._terms).
from .poly import Coeff, ExpKey, Polynomial, _coeff, _negated_text, _wrap, parse_polynomial


class MatrixError(ValueError):
    """Shape or construction error for polynomial matrices."""


_ZERO = Polynomial.zero()
_ONE = Polynomial.const(1)

Ints = tuple[int, ...]


class PolyMatrix:
    """Immutable rows x cols matrix of canonical polynomials: a `table` of
    nonzero entries, and per row its `columns` and the `indices`, the
    slot codes of their entries (2k for table[k], 2k + 1 for -table[k])."""

    __slots__ = ("rows", "cols", "table", "columns", "indices")

    def __init__(self, entries: Sequence[Sequence[Polynomial]], rows: int | None = None, cols: int | None = None):
        """Build from a dense grid of entries; zeros are not stored, and
        equal entries share one table entry.  A grid with no rows needs
        its column count."""
        grid = [tuple(row) for row in entries]
        if rows is None:
            rows = len(grid)
        if cols is None:
            if not grid:
                raise MatrixError("a grid with no rows needs its column count")
            cols = len(grid[0])
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise MatrixError("entry grid does not match declared shape")
        _from_row_maps(({j: e for j, e in enumerate(row) if e} for row in grid), rows, cols, self)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @property
    def entries(self) -> tuple[tuple[Polynomial, ...], ...]:
        """Dense read-only view, built on each access."""
        return tuple(map(tuple, self._dense(self._values(), _ZERO)))

    def _values(self) -> list[Polynomial | None]:
        """The value of each slot code the rows use, read by the code."""
        return _by_code(self.table, _odd_codes(self.indices), neg)

    def _dense(self, values, fill) -> list[list]:
        """The grid of values[k] at each slot of code k, fill elsewhere."""
        out = []
        for js, ks in zip(self.columns, self.indices):
            line = [fill] * self.cols
            for j, k in zip(js, ks):
                line[j] = values[k]
            out.append(line)
        return out

    def nonzeros(self) -> Iterator[tuple[int, int, Polynomial]]:
        """The stored entries as (row, column, entry), row by row with
        the columns increasing."""
        values = self._values()
        for i, (js, ks) in enumerate(zip(self.columns, self.indices)):
            yield from ((i, j, values[k]) for j, k in zip(js, ks))

    def __getitem__(self, idx: tuple[int, int]) -> Polynomial:
        i, j = idx
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range for {self.rows} rows")
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range for {self.cols} columns")
        js = self.columns[i]
        p = bisect_left(js, j)
        if p == len(js) or js[p] != j:
            return _ZERO
        k = self.indices[i][p]
        return -self.table[k >> 1] if k & 1 else self.table[k >> 1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix) or (self.rows, self.cols) != (other.rows, other.cols):
            return False
        # where the columns agree, the slots pair up in one flat pass
        flat = (list(map(m._values().__getitem__, chain.from_iterable(m.indices))) for m in (self, other))
        return self.columns == other.columns and next(flat) == next(flat)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, frozenset(self.nonzeros())))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __neg__(self) -> "PolyMatrix":
        """Negates each table entry once and shares the rows, codes and
        sign bits alike."""
        return _sparse(tuple(map(neg, self.table)), self.columns, self.indices, self.rows, self.cols)

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MatrixError(f"shape mismatch for add: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        out: list[dict[int, Polynomial]] = [{} for _ in range(self.rows)]
        for i, j, e in chain(self.nonzeros(), other.nonzeros()):
            out[i][j] = out[i].get(j, _ZERO) + e
        return _from_row_maps(({j: row[j] for j in sorted(row) if row[j]} for row in out), self.rows, self.cols)

    def texts(self) -> list[list[str]]:
        """The dense grid of entry texts, "0" where no entry is stored:
        str once per distinct value the rows use (see `_slot_texts`)."""
        return self._dense(_slot_texts(self.table, self.indices), "0")

    def render(self) -> str:
        """Text form: rows on lines, entries comma-separated."""
        return "\n".join(", ".join(row) for row in self.texts())

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols})"


def _sparse(table: tuple[Polynomial, ...], columns: Sequence[Ints], indices: Sequence[Ints], rows: int, cols: int,
            m: PolyMatrix | None = None) -> PolyMatrix:
    """A matrix (m itself, if given): see the module docstring."""
    if rows < 0 or cols < 0:
        raise MatrixError(f"negative matrix dimension {rows}x{cols}")
    m = PolyMatrix.__new__(PolyMatrix) if m is None else m
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_table(m, table)
    _set_columns(m, tuple(columns))
    _set_indices(m, tuple(indices))
    return m


# PolyMatrix refuses attribute assignment: _sparse sets its slots.
_set_rows, _set_cols, _set_table, _set_columns, _set_indices = (
    PolyMatrix.__dict__[name].__set__ for name in PolyMatrix.__slots__
)


def _from_row_maps(
    row_maps: Iterable[dict[int, Polynomial]], rows: int, cols: int, m: PolyMatrix | None = None
) -> PolyMatrix:
    """A matrix from {column: nonzero entry} maps whose columns increase,
    with one table entry per distinct value, at even codes."""
    index: dict[Polynomial, int] = {}
    columns, indices = [], []
    for row in row_maps:
        columns.append(tuple(row))
        indices.append(tuple([2 * index.setdefault(e, len(index)) for e in row.values()]))
    return _sparse(tuple(index), columns, indices, rows, cols, m)


def _odd_codes(rows: Iterable[Ints]) -> list[int]:
    """The odd slot codes that rows use, each once."""
    return [k for k in set().union(*rows) if k & 1]


def _by_code(values: Sequence, odd: Iterable[int], negate: Callable) -> list:
    """A list read by slot code: values[k] at 2k, negate(values[k]) at
    each odd code 2k + 1 of odd, and None at the other odd codes."""
    out = [None] * (2 * len(values))
    out[::2] = values
    for k in odd:
        out[k] = negate(values[k >> 1])
    return out


def _slot_texts(table: Sequence[Polynomial], rows: Iterable[Ints]) -> dict[int, str]:
    """The text of each slot code that rows use.  Each distinct value is
    formatted once, and the text of its negation is derived from that
    text once, without negating the value."""
    texts, negated = _Memo(str), _Memo(_negated_text)
    return {k: negated[texts[table[k >> 1]]] if k & 1 else texts[table[k >> 1]] for k in set().union(*rows)}


def _shifted(rows: Sequence[Ints], by: int) -> Sequence[Ints]:
    """Each tuple of rows with by added to every element."""
    return [tuple([x + by for x in r]) for r in rows] if by else rows


def _on_one_table(a: PolyMatrix, b: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
    """a and b over one table: a's, then b's unless b shares it (b's
    codes shift past a's)."""
    if b.table is a.table:
        return a, b
    table = a.table + b.table
    indices = _shifted(b.indices, 2 * len(a.table))
    return _sparse(table, a.columns, a.indices, a.rows, a.cols), _sparse(table, b.columns, indices, b.rows, b.cols)


def from_strings(rows: Iterable[list[str]]) -> PolyMatrix:
    """Parse a grid of polynomial texts, given as rows that are lists of
    strings of one length, in one pass.

    "0" slots are skipped unparsed, and every other slot finds its code
    by one dict lookup done in C, which reads a text seen before as that
    text's code (most entries of a serialized pair are "0" or repeats of
    a few polynomials).  A new text is read onto the sign bit: a text
    with no "+" and no "-" after its first character is one term, and if
    its sign twin (the same text with a leading "-" removed or added)
    was read before, it takes the twin's code xor 1 unparsed, as the
    grammar reads "-t" as -t.  Every other new text is parsed into one
    table entry, whose even code its slots hold.  A text that parses to
    zero (" 0", "x - x"), or whose twin did ("-0"), stores nothing.
    Raises MatrixError for a row that is not a list of strings or whose
    length differs from the first row's.
    """
    table: list[Polynomial] = []

    def code(text: str) -> int | None:
        """The slot code of a text not seen before, None for zero."""
        if type(text) is not str:
            _not_text()
        if "+" not in text and text.find("-", 1) < 0:
            twin = text[1:] if text[:1] == "-" else f"-{text}"
            if twin in codes:
                k = codes[twin]
                return None if k is None else k ^ 1
        p = parse_polynomial(text)
        if not p:
            return None
        table.append(p)
        return 2 * len(table) - 2

    codes = _Memo(code)  # text -> slot code, None for zero
    codes["0"] = None  # the twin of "-0"
    lookup = codes.__getitem__
    columns, indices, cols = [], [], None
    try:
        for row in rows:
            if type(row) is not list:
                _not_text()
            if cols is None:
                cols = len(row)
            elif len(row) != cols:
                raise MatrixError(f"row {len(columns)} has {len(row)} entries, row 0 has {cols}")
            js = [j for j, text in enumerate(row) if text != "0"]
            try:
                ks = list(map(lookup, map(row.__getitem__, js)))
            except TypeError:  # an unhashable entry
                _not_text()
            if None in ks:
                js = [j for j, k in zip(js, ks) if k is not None]
                ks = [k for k in ks if k is not None]
            columns.append(tuple(js))
            indices.append(tuple(ks))
    finally:
        del codes.compute  # code reads codes: leave no reference cycle
    return _sparse(tuple(table), columns, indices, len(columns), cols or 0)


def _not_text() -> NoReturn:
    raise MatrixError("a matrix must be a list of rows of strings")


def identity(n: int) -> PolyMatrix:
    return scalar_matrix(_ONE, n)


def zeros(rows: int, cols: int) -> PolyMatrix:
    return _sparse((), ((),) * max(rows, 0), ((),) * max(rows, 0), rows, cols)


def scalar_matrix(p: Polynomial, n: int) -> PolyMatrix:
    """n x n matrix with p on the diagonal, zero elsewhere."""
    if not p:
        return zeros(n, n)
    return _sparse((p,), list(zip(range(n))), ((0,),) * n, n, n)


def mat_mul(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Exact product over packed exponents and integer coefficients.

    a and b are first put on one table (see `_on_one_table`).  Per call,
    each variable v gets a mixed-radix digit of width 2 * maxexp(v) + 1,
    for maxexp(v) its highest exponent in the table, and a monomial's
    exponents are packed into one int, digit by digit.  A digit of a
    product term is the sum of one digit from a and one from b, so it
    never reaches its width: no carry crosses digits, and adding two
    packed keys packs the product monomial.  Distinct monomials thus
    keep distinct keys.  The entries of b also carry their column j as
    the top digit (j * radix + packed).  Coefficients are scaled to ints
    by the lcm of the table's denominators, so each output row is one
    dict from packed key to int sum.

    The table is read as a list of terms.  When each entry is one term,
    the terms are the entries and the slot codes stay; otherwise each slot
    becomes one slot per term of its entry, at the same column, of code 2t
    for term t (2t + 1 for an odd slot).  One pass over the terms finds
    the digits and the lcm, and a second packs each term once: keys[2t]
    and keys[2t + 1] hold its packed key, coeffs[2t] its coefficient
    times the lcm and coeffs[2t + 1] that negated, so one accumulation
    loop reads one (key, coefficient) per slot of a, and an odd code
    costs no packing.  A row's nonzero sums are grouped by column, and
    each entry is decoded where it sits into the next table entry, at
    the next even code (each packed key and scaled sum, once per call).
    So the table lists the entries of the rows read in full, row by row
    with the columns increasing, and may list a value twice.

    Scalar rows skip that readout.  When row 0 holds one entry, at
    column 0 (code 0), row i is first checked against it: its packed
    sums, shifted by i * radix to column i, are subtracted from row i's
    sums in place, and if every sum left is zero, row i holds that entry
    at column i alone and takes code 0, with no grouping or decode, so a
    product equal to f*I stores f once.  On the first row that misses,
    the sums are added back, and that row and every later one take the
    general readout, so the product is the same either way.
    """
    if a.cols != b.rows:
        raise MatrixError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    a, b = _on_one_table(a, b)
    terms = [term for e in a.table for term in e._terms.items()]
    a_columns, a_codes, b_columns, b_codes = a.columns, a.indices, b.columns, b.indices
    if len(terms) > len(a.table):
        # one slot per term of its entry, at its column: slot code k reads
        # the term codes spans[k], 2t for term t, or 2t + 1 when k is odd
        spans, t = [], 0
        for e in a.table:
            end = 2 * (t + len(e._terms))
            spans += (range(2 * t, end, 2), range(2 * t + 1, end, 2))
            t += len(e._terms)
        (a_columns, a_codes), (b_columns, b_codes) = _per_term(a, spans), _per_term(b, spans)
    # the highest exponent of each variable in the terms, and the lcm of
    # their coefficient denominators
    top: dict[str, int] = {}
    lcd = 1
    for key, c in terms:
        for v, x in key:
            if x > top.get(v, 0):
                top[v] = x
        if type(c) is not int:
            lcd = lcm(lcd, c.denominator)
    digits = [(v, 2 * top[v] + 1) for v in sorted(top)]
    place: dict[str, int] = {}
    radix = 1
    for v, width in digits:
        place[v] = radix
        radix *= width
    # by term code: the packed key, and the coefficient times lcd (negated
    # at odd codes)
    keys: list[int] = []
    coeffs: list[int] = []
    for key, c in terms:
        packed = 0
        for v, x in key:
            packed += x * place[v]
        c = c if lcd == 1 else c.numerator * (lcd // c.denominator)
        keys += (packed, packed)
        coeffs += (c, -c)
    b_rows = [[(j * radix + keys[k], coeffs[k]) for j, k in zip(js, ks)] for js, ks in zip(b_columns, b_codes)]
    scale = lcd * lcd
    decode = _Memo(lambda packed: _unpack(packed, digits)).__getitem__
    coeff = _Memo(lambda c: _coeff(Fraction(c, scale))).__getitem__
    table: list[Polynomial] = []
    columns, indices = [], []
    # row 0's packed (key, sum) items while each row so far holds code 0
    # at its diagonal alone, else None
    scalar = None
    for acols, aidx in zip(a_columns, a_codes):
        acc: dict[int, int] = {}
        get = acc.get
        for k, ia in zip(acols, aidx):
            ka = keys[ia]
            ca = coeffs[ia]
            for kb, cb in b_rows[k]:
                key = ka + kb
                acc[key] = get(key, 0) + ca * cb
        if scalar is not None:
            i = len(columns)
            off = i * radix
            for key, c in scalar:
                key += off
                acc[key] = get(key, 0) - c
            if not any(acc.values()):
                columns.append((i,))
                indices.append((0,))
                continue
            # a miss: restore the sums (the zeros this leaves are skipped)
            # and read this row and every later one in general
            for key, c in scalar:
                acc[key + off] += c
            scalar = None
        sums: dict[int, dict[int, int]] = {}
        for key, c in acc.items():
            if c:
                j, packed = divmod(key, radix)
                if j in sums:
                    sums[j][packed] = c
                else:
                    sums[j] = {packed: c}
        js = sorted(sums)
        start = 2 * len(table)
        for j in js:
            entry = sums[j]
            values = entry.values() if scale == 1 else map(coeff, entry.values())
            table.append(_wrap(dict(zip(map(decode, entry), values))))
        if not columns and js == [0]:
            scalar = list(sums[0].items())
        columns.append(tuple(js))
        indices.append(tuple(range(start, 2 * len(table), 2)))
    return _sparse(tuple(table), columns, indices, a.rows, b.cols)


def _per_term(m: PolyMatrix, spans: list[range]) -> tuple[list[list[int]], list[list[int]]]:
    """m's columns and codes with each slot of code k split into one slot
    per term code in spans[k], at the slot's column."""
    return (
        [[j for j, k in zip(js, ks) for _ in spans[k]] for js, ks in zip(m.columns, m.indices)],
        [[t for k in ks for t in spans[k]] for ks in m.indices],
    )


class _Memo(dict):
    """A dict that computes, keeps and returns the value of a missing key:
    its __getitem__ computes each value once, and looks it up in C after."""

    def __init__(self, compute):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


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

    Each pair of a used table entry of a and one of b (every row of a
    meets every row of b) is multiplied once, whatever the signs of the
    slots that use them, before any row is written; every slot of that
    product holds its code, with the xor of the two slots' sign bits.
    Products of nonzero polynomials are nonzero.
    """
    ta, tb, width = a.table, b.table, b.cols
    # made[ka][kb]: the slot code of the product of the slots of codes ka and kb
    made: list[list[int]] = [[]] * (2 * len(ta))
    ys = {k >> 1 for k in set().union(*b.indices)}
    table: list[Polynomial] = []
    used = set().union(*a.indices)
    for x in {k >> 1 for k in used}:
        e, row = ta[x], [0] * (2 * len(tb))
        made[2 * x] = row
        for y in ys:
            k = 2 * len(table)
            table.append(e * tb[y])
            row[2 * y] = k
            row[2 * y + 1] = k + 1
    for k in used:
        if k & 1:
            made[k] = [c ^ 1 for c in made[k - 1]]
    columns, indices = [], []
    for acols, aidx in zip(a.columns, a.indices):
        offsets = [j * width for j in acols]
        products = [made[ia] for ia in aidx]
        for bcols, bidx in zip(b.columns, b.indices):
            columns.append(tuple([offset + q for offset in offsets for q in bcols]))
            indices.append(tuple([row[ib] for row in products for ib in bidx]))
    return _sparse(tuple(table), columns, indices, a.rows * b.rows, a.cols * b.cols)


def direct_sum(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Block diagonal [[a, 0], [0, b]]; empty blocks are dropped."""
    a, b = _on_one_table(a, b)
    columns = a.columns + tuple(_shifted(b.columns, a.cols))
    return _sparse(a.table, columns, a.indices + b.indices, a.rows + b.rows, a.cols + b.cols)


def block2x2(a: PolyMatrix, b: PolyMatrix, c: PolyMatrix, d: PolyMatrix) -> PolyMatrix:
    """Assemble [[a, b], [c, d]] from conformable blocks.

    The table is the distinct tables of the blocks, in block order (the
    one table itself when the blocks share it), and each block's codes
    shift by twice its table's offset.  An output row joins the left block's
    row and the right block's, whose columns shift by the left width.
    """
    top, bottom, left, right = a.rows, c.rows, a.cols, b.cols
    if (b.rows, d.rows, c.cols, d.cols) != (top, bottom, left, right):
        raise MatrixError("non-conformable blocks")
    tables: list[tuple[Polynomial, ...]] = []
    rows: list[tuple[Sequence[Ints], Sequence[Ints]]] = []
    for x, at in ((a, 0), (b, left), (c, 0), (d, left)):
        offset = 0
        for t in tables:
            if t is x.table:
                break
            offset += 2 * len(t)
        else:
            tables.append(x.table)
        rows.append((_shifted(x.columns, at), _shifted(x.indices, offset)))
    table = tables[0] if len(tables) == 1 else tuple(chain.from_iterable(tables))
    (lc, lk), (rc, rk), (lc2, lk2), (rc2, rk2) = rows
    columns = [*map(add, lc, rc), *map(add, lc2, rc2)]
    return _sparse(table, columns, [*map(add, lk, rk), *map(add, lk2, rk2)], top + bottom, left + right)
