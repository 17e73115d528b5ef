"""CSV serialization of reports, snapshots and study tables.

All files are comma-separated, decimal-point, line-feed terminated, with
floats at a configurable number of significant digits (default 17, which
round-trips binary64 exactly).  `%` is the reference for every float's
text.  A report or study table's body is built by one %-format of a row
template repeated once per row (`_lines`).  A snapshot's body is one
(n, columns) uint8 matrix, a row a cell: the x text (formatted once per
call by `_lines`), a comma, the rho text, a comma, the mu text and a line
feed, with zero bytes where a text is shorter than its columns, which are
taken out before the write.  `_format_fixed` gives the rho and mu text of
one snapshot at a time, exactly the bytes `%` gives, from exact integer
arithmetic; a snapshot holding a value it does not cover (zero, a
subnormal, a value in exponential notation, a non-finite one) is formatted
whole by `_lines`, so either path writes the same bytes.  read_table
parses a body with numpy's C tokenizer (`np.loadtxt`), which converts each
field with the routine `float` uses, so the values are correctly rounded
and bit-identical to `float`'s.  It keeps that array only when it holds
one row per body line, since loadtxt skips blank lines.  Anything else
goes to one flat `float` pass, which owns every error message and also
reads what only `float` accepts (`1_0`, Unicode digits).

read_snapshots splits the snapshot files in time order over every CPU
this process may use with `_chunks.in_chunks`, each file of weight 1 (so
every chunk but the first, which may be smaller, holds ceil(count / CPUs)
files): the first chunk in this process and each other in an `os.fork`
child.  Readers parse straight into a (T, 2, n) array over one shared map
(`_chunks.shared_array`), so a child sends back nothing but its error.
Each chunk stops at its first failing file, and the earliest failing
chunk's error is raised once every child is reaped: a read fails on the
first bad file in time order, as a sequential reader would.

write_snapshots formats and writes each snapshot on its own, in time order
in this process, so a trajectory's text is never held in memory whole.
`crossdiff run` on two or more CPUs streams its snapshots
(`_stream.stream_snapshots`): writer processes write each to its .tmp name
with that per-file code (`_snapshot_text`) while the run goes on.  Given
that stream as its private _stream argument, write_snapshots commits: the
stream waits for the writers and says which files they wrote, and the one
loop renames those into place and writes any other one itself.

Files are written to a temporary file and atomically renamed into place; a
failed write removes its temporary file, so no partial table is left
behind.  After a failed write_snapshots the files before the failing one
are in place and no later one is, on any CPU count.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import os
from pathlib import Path

import numpy as np

from ._chunks import in_chunks, shared_array
from .diagnostics import SCALAR_COLUMNS, DiagnosticsReport
from .solver import Trajectory
from .study import StudyReport
from .grid import GridSpec, check_states


def _lines(row: str, values: list, precision: int) -> str:
    """`row`, a %-template whose %g fields print `precision` significant
    digits, formatted once per line over the row-major `values`."""
    row = row.replace("%g", f"%.{precision}g") + "\n"
    return (row * (len(values) // row.count("%"))) % tuple(values)


def _tmp(path: Path) -> Path:
    return path.with_name(path.name + ".tmp")


def _write_file(path: Path, text: str | bytes) -> None:
    with (open(path, "w", newline="") if isinstance(text, str) else open(path, "wb")) as fh:
        fh.write(text)


def _unlink(path: Path) -> None:
    with contextlib.suppress(OSError):  # a directory is not ours to remove
        path.unlink(missing_ok=True)


def write_atomic(path: Path, text: str | bytes) -> None:
    """Write text (or bytes) to path through path.tmp and a rename, so path
    holds either its old content or all of text; on any failure path.tmp is
    removed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp(path)
    try:
        _write_file(tmp, text)
        os.replace(tmp, path)
    except BaseException:
        _unlink(tmp)
        raise


def _write_tables(out_dir, tables, precision: int) -> list[Path]:
    """Write each (file name, header, row template, row-major values) table."""
    out = Path(out_dir)
    for name, header, row, values in tables:
        write_atomic(out / name, header + "\n" + _lines(row, values, precision))
    return [out / name for name, *_ in tables]


def write_report_csv(report: DiagnosticsReport, out_dir, precision: int = 17) -> list[Path]:
    """Write scalars.csv, omega_space.csv, omega_time.csv and residuals.csv."""
    scalars = [report.times] + [getattr(report, col) for col in SCALAR_COLUMNS]
    return _write_tables(out_dir, [
        ("scalars.csv", "t," + ",".join(SCALAR_COLUMNS), ",".join(["%g"] * len(scalars)),
         np.column_stack(scalars).ravel().tolist()),
        ("omega_space.csv", "h,omega_rho,omega_mu", "%g,%g,%g",
         np.column_stack((report.omega_space_h, report.omega_space_rho,
                          report.omega_space_mu)).ravel().tolist()),
        ("omega_time.csv", "k,omega_rho,omega_mu", "%g,%g,%g",
         np.column_stack((report.omega_time_k, report.omega_time_rho,
                          report.omega_time_mu)).ravel().tolist()),
        ("residuals.csv", "phi_id,species,residual", "%s,%s,%g",
         [v for row in report.residuals for v in row]),
    ], precision)


_U64 = np.uint64
_FIVES_HI, _FIVES_LO = np.divmod(np.array([5**s for s in range(22)], dtype=_U64),
                                 _U64(2**32))  # 5^21 < 2^49


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four digits of each of 0..9999 as uint16 pairs (ASCII code, then
    0xFF) in one uint64, and how many zero digits end each."""
    group = np.arange(10**4, dtype=np.uint16)
    pairs = np.full((10**4, 4, 2), 0xFF, dtype=np.uint8)
    pairs[:, :, 0] = ord("0") + group[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10
    trailing = sum(group % 10**k == 0 for k in (1, 2, 3, 4))
    return pairs.reshape(10**4, 8).view(_U64)[:, 0], trailing


_TEXT_WIDTH = 40  # bytes of `_format_fixed` text a value: 20 (digit, 0xFF) pairs


@functools.cache
def _layout(precision: int) -> np.ndarray:
    """Masks over the 20 (digit, 0xFF) pairs of `_format_fixed`, one row for
    each decimal exponent E in -4..p-1 and count of significant digits in
    0..p, at (E + 4) (p + 1) + count.  A row keeps the p digits of N up to
    its last significant one and every integer digit, and puts a point in
    the 0xFF after digit E for E >= 0 when a fraction digit is kept.  For
    E < 0 it puts "0." and -E-1 zeros, with a zero byte after an odd count,
    in the last pairs of the pad, which hold ("0", 0xFF): "0" falls on a
    digit and "." on a 0xFF."""
    p, pad = precision, 20 - precision
    table = np.zeros((p + 4, p + 1, 20, 2), dtype=np.uint8)
    for exp10 in range(-4, p):
        for count in range(p + 1):
            row = table[exp10 + 4, count]
            kept = max(count, exp10 + 1)
            row[pad:pad + kept, 0] = 0xFF
            if exp10 < 0:
                prefix = b"0." + b"0" * (-exp10 - 1)
                prefix += b"\0" * (len(prefix) % 2)
                row[pad - len(prefix) // 2:pad] = np.frombuffer(prefix, np.uint8).reshape(-1, 2)
            elif kept > exp10 + 1:
                row[pad + exp10, 1] = ord(".")
    return table.reshape(-1, _TEXT_WIDTH)


def _scaled(m: np.ndarray, e: np.ndarray, s: np.ndarray):
    """(N, floor, t) for x = m 2^(e-53), 2^52 <= m < 2^53: N is x 10^s
    rounded half to even, as dtoa rounds, floor is x 10^s rounded down, and
    t = 53 - s - e.  Exact where t >= 1, 0 <= s <= 21 and x 10^s < 2^62:
    x 10^s is m 5^s / 2^t, the product m 5^s < 2^102 is formed as
    hi 2^64 + lo from 32-bit limbs, and the remainder of the shift is zero
    when m is a multiple of 2^(t-1), as 5^s is odd.  numpy's shifts give 0
    for a shift of 64 or more, which is also what a negative shift wraps to
    in uint64.  The limbs are multiplied in place, to keep few arrays."""
    f_hi, f_lo = _FIVES_HI.take(s), _FIVES_LO.take(s)
    hi, lo = m >> 32, m & (2**32 - 1)
    mid = hi * f_lo + lo * f_hi  # < 2^54
    hi *= f_hi
    lo *= f_lo
    hi += mid >> 32
    mid <<= 32
    lo += mid
    hi += lo < mid  # the carry
    t = 53 - s - e
    u = (t - 1).astype(_U64)
    half = (lo >> u) | (hi << (64 - u)) | (hi >> (u - 64))  # floor(2 x 10^s)
    exact = m & ((1 << u) - 1) == 0  # x 10^s is a multiple of 1/2
    floor = half >> 1
    return floor + (half & 1 & (~exact | floor)), floor, t


def _decimal(values: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, E, done) for `_format_fixed`: the p significant digits N of each
    value, its decimal exponent E after rounding, and whether it is done.

    N = x 10^(p-1-E) rounded half to even, formed exactly in integers, with E
    first taken as floor(log10 x) and moved by one where N falls outside
    [10^(p-1), 10^p); a value that rounds up to N = 10^p is 10^(p-1) one
    decade up."""
    positive = np.isfinite(values) & (values > 0)
    x = np.where(positive, values, 1.0)
    frac, e = np.frexp(x)
    m = (frac * 2.0**53).astype(_U64)
    exp10 = np.clip(np.floor(np.log10(x)).astype(np.int64), -4, p - 1)
    n, floor, t = _scaled(m, e, p - 1 - exp10)
    move = (floor >= 10**p).astype(np.int64) - (floor < 10**(p - 1))
    fix = np.flatnonzero(move)
    if fix.size:
        exp10[fix] += move[fix]
        n[fix], _, t[fix] = _scaled(m[fix], e[fix], np.clip(p - 1 - exp10[fix], 0, 21))
    top = n == 10**p
    n[top] = 10**(p - 1)
    exp10 += top
    return n, exp10, positive & (exp10 >= -4) & (exp10 < p) & (t >= 1)


def _format_fixed(values: np.ndarray, precision: int) -> tuple[np.ndarray, np.ndarray]:
    """(text, done): the `%.{precision}g` text of each of the float64 values
    as a (len(values), _TEXT_WIDTH) uint8 matrix whose rows, with their zero
    bytes taken out, are exactly the bytes `%` gives, and a mask of the
    values so formatted: at a precision p in 1..17, the finite x > 0 whose
    text is in fixed notation (decimal exponent E after rounding in
    -4..p-1) and whose shift t in `_scaled` is positive, as it is for every
    x below 2^50.  Rows not in `done` mean nothing.

    The text is the 20-digit decimal text of N (`_decimal`), with N's pad of
    leading zeros and its trailing zeros taken out, "0." and -E-1 zeros put
    in the pad for E < 0, and a point after digit E for E >= 0 when a
    fraction digit is left (`_layout`)."""
    p = precision
    if not 1 <= p <= 17:
        return np.zeros((len(values), _TEXT_WIDTH), np.uint8), np.zeros(len(values), bool)
    n, exp10, done = _decimal(values, p)
    groups = []  # of four digits, the last first
    for _ in range(4):
        rest = n // 10**4
        groups.append(n - rest * 10**4)
        n = rest
    groups.append(n)  # n < 2^64 has 20 digits
    groups.reverse()
    digit_pairs, trailing = _digit_tables()
    zeros = 0  # how many zero digits end the groups so far
    for group in groups:
        zeros = np.where(group == 0, zeros + 4, trailing.take(group))
    text = _layout(p).take(np.where(done, (exp10 + 4) * (p + 1) + p - zeros, 0), axis=0)
    for column, group in zip(text.view(_U64).T, groups):  # the digits under the masks
        column &= digit_pairs.take(group)
    return text, done


def snapshot_filename(t: float) -> str:
    return f"snapshot_{format(float(t), '.17g')}.csv"


def _snapshot_text(grid: GridSpec, precision: int):
    """text(state): the bytes of the snapshot file of a (2, n) state on grid.
    The x column is formatted here, once, into a body matrix of a row a
    cell: x, rho and mu text with their commas and line feed, and zero bytes
    where a text is shorter than its columns."""
    # the x text, zero-padded to the longest: one array, not n string objects
    x_text = np.array(_lines("%g", grid.cell_centers().tolist(), precision).splitlines(),
                      dtype=bytes)
    n, x_end, width = len(x_text), x_text.itemsize, _TEXT_WIDTH
    header = b"x,rho,mu\n"
    body = np.zeros(len(header) + n * (x_end + 2 * width + 3), dtype=np.uint8)
    body[:len(header)] = np.frombuffer(header, dtype=np.uint8)
    rows = body[len(header):].reshape(n, -1)
    rows[:, :x_end] = x_text.view(np.uint8).reshape(n, x_end)
    rows[:, [x_end, x_end + width + 1, -1]] = np.frombuffer(b",,\n", dtype=np.uint8)
    rho_text = rows[:, x_end + 1:x_end + width + 1]
    mu_text = rows[:, x_end + width + 2:-1]

    def text(state: np.ndarray) -> bytes:
        values, done = _format_fixed(np.ravel(state), precision)
        if not done.all():
            flat = [None] * (3 * n)  # x, rho, mu of each row in turn
            flat[0::3], flat[1::3], flat[2::3] = (x_text.astype(str).tolist(), state[0].tolist(),
                                                  state[1].tolist())
            return (header.decode() + _lines("%s,%g,%g", flat, precision)).encode()
        rho_text[...], mu_text[...] = values[:n], values[n:]
        del values  # freed before the file's bytes, twice the body's size at their peak, are made
        return body.tobytes().translate(None, b"\0")

    return text


def write_snapshots(traj: Trajectory, out_dir, precision: int = 17, *,
                    _stream=None) -> list[Path]:
    """Write snapshot_<t>.csv for every time of traj, in time order; the
    paths.  Given the stream that traj was run with (_stream.stream_snapshots
    into out_dir at this precision), the files that its commit() names sit at
    their .tmp names: those are renamed into place, the others written here.
    On a failure the files before the failing one exist, and no .tmp name of
    a later one is left."""
    out = Path(out_dir)
    paths = [out / snapshot_filename(t) for t in traj.times]
    streamed = set(_stream.commit()) if _stream is not None else set()
    text = None
    for j, path in enumerate(paths):
        try:
            if j in streamed:
                os.replace(_tmp(path), path)
            else:
                text = text or _snapshot_text(traj.problem.grid, precision)
                write_atomic(path, text(traj.states[j]))
        except BaseException:
            for k in streamed.intersection(range(j, len(paths))):
                _unlink(_tmp(paths[k]))
            raise
    return paths


def read_snapshots(traj_dir, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Load snapshot_<t>.csv files, sorted by time, as (times, states): a
    (T,) array and a read-only (T, 2, n) array with rho in [:, 0] and mu in
    [:, 1].  Every time and density must parse and be finite, every density
    must be positive, no two files may hold the same time, and the states
    must fit grid.MAX_STATE_BYTES."""
    stamped = []
    for path in Path(traj_dir).glob("snapshot_*.csv"):
        try:
            t = float(path.stem[len("snapshot_"):])
            if not math.isfinite(t):  # a NaN would leave the sort order undefined
                raise ValueError(f"non-finite snapshot time {t!r}")
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        stamped.append((t, path))
    if not stamped:
        raise ValueError(f"no snapshot_*.csv files in {traj_dir}")
    stamped.sort()
    for (t, first), (t_next, path) in zip(stamped, stamped[1:]):
        if t_next == t:
            raise ValueError(f"{path}: duplicate snapshot time {t!r}, also in {first.name}")
    try:
        check_states(len(stamped), grid.n_cells)
    except ValueError as err:
        raise ValueError(f"{traj_dir}: {err}") from None
    states = shared_array((len(stamped), 2, grid.n_cells))  # the forked readers parse into it

    def read(lo: int, hi: int) -> None:
        for state, (_, path) in zip(states[lo:hi], stamped[lo:hi]):
            try:
                header, data = read_table(path)
                if header != ["x", "rho", "mu"]:
                    raise ValueError(f"unexpected snapshot header {','.join(header)!r}")
                if data.shape[0] != grid.n_cells:
                    raise ValueError(f"expected {grid.n_cells} rows, got {data.shape[0]}")
                if data.shape[1] != 3:
                    raise ValueError(f"expected 3 values a row, got {data.shape[1]}")
                state[...] = data[:, 1:].T
                if not np.all(np.isfinite(state)):
                    raise ValueError("non-finite density value")
                bad = np.argwhere(state <= 0.0)
                if bad.size:
                    raise ValueError(f"nonpositive density at cell {bad[0, -1]}")
            except ValueError as err:
                raise ValueError(f"{path}: {err}") from None

    in_chunks(read, [1] * len(stamped))
    states.setflags(write=False)
    return np.array([t for t, _ in stamped]), states


def write_study_csv(report: StudyReport, out_dir, precision: int = 17) -> list[Path]:
    return _write_tables(out_dir, [
        ("levels.csv", "level,n_cells,eps,mass_rho,mass_mu,entropy_min,entropy_max,"
         "sup_bv_u,int_diss", "%s,%s,%g,%g,%g,%g,%g,%g,%g",
         [v for s in report.summaries for v in
          (s.level, s.n_cells, s.eps, s.mass_rho, s.mass_mu, s.entropy_min,
           s.entropy_max, s.sup_bv_u, s.int_diss)]),
        ("cauchy_l1.csv", "pair,cauchy_rho,cauchy_mu", "%d-%d,%g,%g",
         [v for i, (cr, cm) in enumerate(zip(report.cauchy_rho, report.cauchy_mu))
          for v in (i, i + 1, cr, cm)]),
        ("rates.csv", "name,value", "%s,%g",
         ["weak_residual_order", report.rate_weak_residual,
          "reference_error_order", report.rate_reference_error]),
    ], precision)


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Read a numeric CSV written by this package: (column names, data), with
    data a (rows, columns) array, (0, len(column names)) for a header-only
    file.  Every body row must hold the same number of values.

    The body goes through np.loadtxt first, and its array is returned only
    when it has one row per body line.  On a loadtxt error, a row-count
    mismatch or a body holding a \\x1c-\\x1f separator (which loadtxt strips
    as whitespace and `float` rejects), the flat `float` pass reads the
    body, so the values, shape and error text are those of `float` either
    way."""
    head, _, body = Path(path).read_text().strip().partition("\n")
    header = head.split(",")
    if not body:
        return header, np.zeros((0, len(header)))
    if not any(sep in body for sep in "\x1c\x1d\x1e\x1f"):
        try:
            data = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
            if len(data) == body.count("\n") + 1:
                return header, data
        except ValueError:
            pass
    rows = body.split("\n")
    commas = [row.count(",") for row in rows]
    if commas.count(commas[0]) != len(commas):
        i = next(i for i, c in enumerate(commas) if c != commas[0])
        raise ValueError(f"ragged rows: line {i + 2} holds {commas[i] + 1} values, "
                         f"line 2 holds {commas[0] + 1}")
    data = np.array(list(map(float, body.replace("\n", ",").split(","))))
    return header, data.reshape(len(rows), commas[0] + 1)
