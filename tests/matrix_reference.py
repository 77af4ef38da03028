"""Test-side matrix helpers: what the tests read a SparseMatrix by and the
engine itself does not need.

The engine eliminates every complex as given and compares no matrices, so
the transpose, the product, equality of stored forms and assembly from
columns of field values live here.  Each builds through the engine's
checked constructors.  gauss_jordan and rank are plain dense Gauss-Jordan
in field arithmetic, the reference for the engine's sparse elimination.
"""

from koszul.exactla import SparseMatrix, StructuralError


def key(m):
    """The stored form of m: equal exactly when two matrices are, as the
    integer columns of a Q matrix are taken over its least denominator."""
    return m.field, m.rows, m.cols, m.scale, m.int_columns


def matrix_from_columns(field, rows, columns):
    """The matrix whose j-th column is columns[j] (dict row -> scalar)."""
    return SparseMatrix(field, rows, len(columns), {
        (i, j): x for j, col in enumerate(columns) for i, x in col.items()})


def transpose(m):
    """The transpose of m, in ints."""
    out = [{} for _ in range(m.rows)]
    for j, col in enumerate(m.int_columns):
        for i, x in col.items():
            out[i][j] = x
    return SparseMatrix.from_int_columns(m.field, m.cols, out, m.scale)


def compose(a, b):
    """a @ b (apply b first)."""
    if b.rows != a.cols:
        raise StructuralError(f"cannot compose {a.rows}x{a.cols} with {b.rows}x{b.cols}")
    return matrix_from_columns(a.field, a.rows, [a.apply(col) for col in b.columns()])


def gauss_jordan(field, dense, cols):
    """Reduced row echelon form of a dense matrix (a list of rows):
    (pivot columns, the nonzero rows)."""
    rows = [list(row) for row in dense]
    pivots = []
    for j in range(cols):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if not field.is_zero(rows[i][j])), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = field.inv(rows[r][j])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and not field.is_zero(row[j]):
                c = row[j]
                rows[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(row, rows[r])]
        pivots.append(j)
    return pivots, rows[:len(pivots)]


def rank(m):
    """The dense Gauss-Jordan rank of m, read from its integer columns
    (over Q a common denominator does not change the rank)."""
    dense = [[m.field.of_int(m.int_columns[j].get(i, 0)) for j in range(m.cols)]
             for i in range(m.rows)]
    return len(gauss_jordan(m.field, dense, m.cols)[0])
