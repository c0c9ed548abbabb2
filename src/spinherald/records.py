"""Records files: the line format that `simulate` writes and `tomo` reads.

A records file is ASCII: the header line `_HEADER`, then one line per shot
of six comma-separated fields, shot_id, setting_id, branch, phi_tac,
outcome and n_attempts.  `_record_lines` formats a frame's shots as such
lines by array arithmetic on a byte matrix, with phi_tac as
`format(x, ".9g")`.

`_range_task` counts the lines of one range of a file into one phase bin
per setting, which is all the tomography reads.  Its reader, `_read_block`,
reads the lines in the writer's own form (digits, a point in phi_tac,
`up`/`down`) by array arithmetic on the range's bytes, and every other line
with `np.loadtxt` (`_parse_block`), so the accepted grammar is that of
`np.loadtxt` under `_parse_block`'s checks either way.  It checks phi_tac's
grammar and reads no phi_tac value.  A range that holds a line outside it
is bisected with `_parse_block` down to its first such line.
"""

from __future__ import annotations

import io
import string
from types import SimpleNamespace

import numpy as np

from .engine import ShotFrame
from .tomography import ShotCounts

RECORD_COLUMNS = ("shot_id", "setting_id", "branch", "phi_tac", "outcome", "n_attempts")
_HEADER = ",".join(RECORD_COLUMNS).encode()  # a records file's first line
_RECORD_DTYPE = np.dtype(
    [
        ("shot_id", np.int64),
        ("setting_id", np.int64),
        ("branch", np.int64),
        ("phi_tac", np.float64),
        ("outcome", "S5"),  # wide enough that "downx" cannot read as "down"
        ("n_attempts", np.int64),
    ]
)
# every byte a records body may hold: no whitespace, quote or comment mark
_RECORD_BYTES = (string.ascii_letters + string.digits + "+-.,\n").encode()
# 10**k, k = 0 ... 15: exact in int64, and in float64 too
_POW10 = 10 ** np.arange(16, dtype=np.int64)
# an outcome's 4 columns: "down", or "up" and two padding bytes
_OUTCOME_BYTES = np.frombuffer(b"downup\0\0", np.uint8).reshape(2, 4).T
# phi_tac's columns: 9 integer-part digits, the point and 13 fraction digits
_PHI_WIDTH = 23
# bytes of the widest records line: a 19-digit shot_id, ",<19-digit
# setting_id>,", the branch and ",", the phi_tac columns, ",", 4 outcome
# columns, ",", a 19-digit n_attempts and "\n"
_LINE_MAX = 91


def _check_records(setting_id: int, f: ShotFrame) -> None:
    """ValueError, naming the setting and the column, unless every value of
    the frame lies in the grammar of `read_counts`."""
    for column, ok, rule in (
        ("setting_id", 0 <= setting_id < 2**63, "a non-negative int64"),
        ("shot_id", f.shot_id.min(initial=0) >= 0, "non-negative"),
        ("branch", ((f.branch >= 0) & (f.branch <= 2)).all(), "0, 1 or 2"),
        ("phi_tac", np.isfinite(f.phi_tac).all(), "finite"),
        ("n_attempts", f.n_attempts.min(initial=0) >= 0, "non-negative"),
    ):
        if not ok:
            raise ValueError(
                f"records of setting {setting_id}: {column} must be {rule}"
            )


def _digits(rows: np.ndarray, t: np.ndarray) -> None:
    """The decimal digits of non-negative integers t, right-aligned in
    `rows` (one uint8 row per digit, at least as many rows as the widest
    value has digits) as the numbers 0-9."""
    # a copy, which the loop overwrites; int32 arithmetic is ~3x faster and
    # holds any value of at most 9 digits
    t = t.astype(np.int32 if len(rows) <= 9 else np.int64)
    q, ten_q = np.empty_like(t), np.empty_like(t)
    for row in rows[:0:-1]:
        np.floor_divide(t, 10, out=q)
        np.multiply(q, 10, out=ten_q)
        np.subtract(t, ten_q, out=row, casting="unsafe")
        t, q = q, t
    rows[0] = t


def _ascii(rows: np.ndarray) -> np.ndarray:
    """Digits 0-9 in `rows` as ASCII, except that the zeros ahead of the
    first nonzero digit in row order become 0 bytes; True where a digit is
    nonzero."""
    seen = np.zeros(rows.shape[1], bool)
    for row in rows:
        seen |= row != 0
        row += ord("0")
        row *= seen
    return seen


def _integer_column(rows: np.ndarray, t: np.ndarray) -> None:
    """Non-negative int64 values t as decimal text right-aligned in `rows`,
    their leading zeros 0 bytes."""
    _digits(rows, t)
    _ascii(rows[:-1])
    rows[-1] += ord("0")  # the units digit, also of a 0


def _phi_columns(rows: np.ndarray, x: np.ndarray) -> None:
    """Finite x as `format(x, ".9g")` in `rows` (_PHI_WIDTH uint8 rows), with
    0 bytes where the text has no character.

    With e = floor(log10 |x|) clipped to [-4, 8], y = x * 10**(8 - e) takes
    one rounding (error < 6e-8, as y < 1e9 and 10**(8 - e) is exact).  Where
    its rint r lies in [1e8, 1e9) and y is no near-tie, r is the correctly
    rounded 9-digit significand of a fixed-point text, written as the digits
    of r / 10**(8 - e) with the fraction's trailing zeros (and a bare point)
    dropped.  Every other row (zeros, negatives, exponent form, near-ties,
    a log10 one off) is formatted by Python and copied in."""
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(np.abs(x)))
    k = 8 - np.clip(e, -4, 8).astype(np.intp)
    scale = _POW10[k]
    y = x * scale
    r = np.rint(y)
    fast = (r >= 1e8) & (r < 1e9) & (np.abs(y - np.floor(y) - 0.5) > 1e-6)
    r = np.where(fast, r, 0.0).astype(np.int64)
    whole = r // scale
    _integer_column(rows[:9], whole)
    point, frac = rows[9], rows[10:]
    fraction = (r - whole * scale) * _POW10[13 - k]  # its 13 digits, as an integer
    high = fraction // _POW10[7]  # in two halves of 6 and 7 digits, for int32
    _digits(frac[:6], high)
    _digits(frac[6:], fraction - high * _POW10[7])
    point[:] = _ascii(frac[::-1]) * ord(".")  # trailing zeros dropped
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = [format(v, ".9g").encode() for v in x[slow].tolist()]
        text = np.array(text, f"S{_PHI_WIDTH}").view(np.uint8)
        rows[:, slow] = text.reshape(-1, _PHI_WIDTH).T


def _record_lines(setting_id: int, f: ShotFrame) -> bytes:
    """The records lines of one frame's shots, as ASCII bytes; ValueError if
    a value lies outside the grammar of `read_counts`.

    One uint8 row per output column of a (width, shots) matrix, each written
    whole: shot_id digits (as many as its largest value has), ",setting_id,",
    the branch digit and ",", phi_tac (`_phi_columns`), ",", the outcome in 4
    columns, ",", n_attempts digits and "\n".  Bytes that belong to no text
    (leading and trailing zeros, padding) are 0 and are dropped once the
    matrix is laid out row by row."""
    _check_records(setting_id, f)
    if len(f) == 0:
        return b""
    setting = f",{setting_id},".encode()
    shot_width, attempts_width = (len(str(c.max())) for c in (f.shot_id, f.n_attempts))
    widths = (shot_width, len(setting), 2, _PHI_WIDTH, 1, 4, 1, attempts_width, 1)
    M = np.empty((sum(widths), len(f)), np.uint8)
    shot, sid, branch, phi, comma1, outcome, comma2, attempts, newline = np.split(
        M, np.cumsum(widths)[:-1]
    )
    _integer_column(shot, f.shot_id)
    sid[:] = np.frombuffer(setting, np.uint8)[:, None]
    np.add(f.branch, ord("0"), out=branch[0], casting="unsafe")
    branch[1] = comma1[0] = comma2[0] = ord(",")
    _phi_columns(phi, f.phi_tac)
    np.take(_OUTCOME_BYTES, f.outcome_up.astype(np.intp), axis=1, out=outcome)
    _integer_column(attempts, f.n_attempts)
    newline[0] = ord("\n")
    return M.T.tobytes().translate(None, b"\0")  # tobytes writes line after line


def _parse_block(block: bytes) -> np.ndarray:
    """The lines of a nonempty run of whole lines of a records body as one
    structured row each; ValueError unless every line is a record."""
    blank_line = block.startswith(b"\n") or b"\n\n" in block
    if blank_line or block.translate(None, _RECORD_BYTES):
        raise ValueError("blank line or a byte outside the records grammar")
    rec = np.loadtxt(
        io.BytesIO(block), dtype=_RECORD_DTYPE, delimiter=",", comments=None, ndmin=1
    )
    outcome, branch = rec["outcome"], rec["branch"]
    if not (
        ((outcome == b"up") | (outcome == b"down")).all()
        and ((branch >= 0) & (branch <= 2)).all()
        and np.isfinite(rec["phi_tac"]).all()
        and min(rec[k].min() for k in ("shot_id", "setting_id", "n_attempts")) >= 0
    ):
        raise ValueError("record outside its column's range")
    return rec


# a line in the writer's form: its bytes below "0", in order
_SEPARATORS = b",,,.,,\n"
_SEPARATOR_CODES = np.frombuffer(_SEPARATORS, np.uint8)
# 1 + the most bytes of each field of such a line: shot_id, setting_id,
# branch, phi_tac's integer part and its fraction, the outcome (checked by
# its letters) and n_attempts; every field has one byte at least
_GAP_MAX = np.array([19, 16, 16, 16, 16, 16, 16], np.uint64)
# the 8 bytes up to the comma after an outcome, as a little-endian word,
# end in ",up" or ",down"
_UP, _DOWN = (int.from_bytes(text, "little") for text in (b",up", b",down"))
# the digit values of an 8-byte little-endian word of ASCII digits, 0-9 in
# each byte, that lie in its last k bytes, k = 0 ... 8
_DIGITS = np.array(
    [(1 << 64) - (1 << 8 * (8 - k)) & 0x0F0F0F0F0F0F0F0F for k in range(9)], np.uint64
)
# the steps of a SWAR sum of decimal digits, one per byte (Lemire): lanes
# of 1, 2 and 4 digits join pairwise, each by one multiply, shift and mask
_SWAR = (
    (1, 10 << 8 | 1, 0x00FF00FF00FF00FF),
    (2, 100 << 16 | 1, 0x0000FFFF0000FFFF),
    (4, 10000 << 32 | 1, 0xFFFFFFFF),
)


def _eight_digits(words: np.ndarray, end: np.ndarray, k: np.ndarray, most: int) -> np.ndarray:
    """The values of the runs of k = 0 ... most <= 8 decimal digits that end
    before byte `end`, from the 8-byte little-endian words `words[end - 8]`."""
    d = words[end - 8] & _DIGITS[k]
    lanes = 1 << (most - 1).bit_length()  # 1, 2, 4 or 8 bytes hold the runs
    d >>= 8 * (8 - lanes)
    for digits, multiplier, mask in _SWAR[: lanes.bit_length() - 1]:
        d = ((d * multiplier) >> 8 * digits) & mask
    return d


def _decimal(words: np.ndarray, end: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The int64 values of the runs of k = 1 ... 16 decimal digits that end
    before byte `end` (`_eight_digits`)."""
    most = int(k.max())
    if most <= 8:
        return _eight_digits(words, end, k, most).view(np.int64)
    high = _eight_digits(words, end - 8, np.maximum(k - 8, 0), most - 8)
    return (_eight_digits(words, end, np.minimum(k, 8), 8) + high * 10**8).view(np.int64)


def _columns(rec: np.ndarray) -> SimpleNamespace:
    """The columns `_read_block` returns, of `_parse_block`'s rows."""
    return SimpleNamespace(
        setting_id=rec["setting_id"],
        branch=rec["branch"],
        outcome_up=rec["outcome"] == b"up",
        n_attempts=rec["n_attempts"],
    )


def _read_block(block: bytes) -> SimpleNamespace:
    """The setting_id, branch, outcome_up and n_attempts columns of a
    nonempty run of whole lines of a records body (the last may lack its
    line end), one row per line; ValueError exactly where `_parse_block`
    raises.  phi_tac is checked, not read: no count needs its value.

    A line is in the writer's form when its bytes below "0" are ",,,.,,\\n",
    its outcome is up or down, its branch one digit 0-2, shot_id has 1-18
    digits, setting_id and n_attempts 1-15 and phi_tac a nonempty integer
    part and fraction with at most 15 digits in all.  Its other bytes are
    checked in bulk: the block's bytes above "9" must be the outcome letters
    of those lines and the letters of the others, or the whole block goes
    to `_parse_block`.  Their integers are read from 8-byte words of the
    block (`_decimal`).  Every other line goes to `_parse_block` and its
    values are put back in their rows."""
    if not block.endswith(b"\n"):
        block += b"\n"
    text = b"0" * 8 + block  # so that the word up to each field lies in the text
    a = np.frombuffer(text, np.uint8)
    words = np.ndarray((len(text) - 7,), "<u8", text, strides=(1,))  # one per byte
    sep = np.flatnonzero(a < ord("0"))  # every comma, point and line end
    kind = a[sep]
    n = len(sep) // 7
    if kind.tobytes() == _SEPARATORS * n:
        at, canon = sep.reshape(n, 7), True
    else:  # the last 7 separators up to each line end, within the block
        nl = np.flatnonzero(kind == ord("\n"))
        n, last7 = len(nl), np.maximum(nl[:, None] + np.arange(-6, 1), 0)
        at = sep[last7]
        canon = (np.diff(nl, prepend=-1) == 7) & (kind[last7] == _SEPARATOR_CODES).all(1)
    flat, gap = at.ravel(), np.empty(at.shape, np.int64)  # 1 + each field's bytes
    gap.flat[0] = flat[0] - 7  # the text's first line starts at byte 8
    np.subtract(flat[1:], flat[:-1], out=gap.reshape(-1)[1:])
    outcome = words[at[:, 5] - 8]
    up = outcome >> 40 == _UP
    branch = a[at[:, 2] - 1] - ord("0")
    canon &= (up | (outcome >> 24 == _DOWN)) & (branch <= 2) & (gap[:, 2] == 2)
    canon &= gap[:, 3] + gap[:, 4] <= 17
    if gap.min() < 2 or gap.max() > 16:  # an empty field or a wide one
        canon &= ((gap - 2).view(np.uint64) <= _GAP_MAX - 2).all(1)
    other = np.flatnonzero(~canon)
    if len(other) == n:
        return _columns(_parse_block(block))
    ends = at[other, 6]
    lines = b"".join(
        text[s:e] for s, e in zip((at[other, 0] + 1 - gap[other, 0]).tolist(), (ends + 1).tolist())
    )
    letters = np.count_nonzero(np.frombuffer(lines, np.uint8) > ord("9"))
    if np.count_nonzero(a > ord("9")) != letters + 4 * (n - len(other)) - 2 * up[canon].sum():
        return _columns(_parse_block(block))  # a letter among a line's digits
    if len(other):
        at, gap, up, branch = at[canon], gap[canon], up[canon], branch[canon]
    rows = SimpleNamespace(
        setting_id=_decimal(words, at[:, 1], gap[:, 1] - 1),
        branch=branch,
        outcome_up=up,
        n_attempts=_decimal(words, at[:, 6], gap[:, 6] - 1),
    )
    if len(other):
        slow = _columns(_parse_block(lines))
        for name, column in vars(rows).items():
            merged = np.empty(n, column.dtype)
            merged[canon], merged[other] = column, getattr(slow, name)
            setattr(rows, name, merged)
    return rows


def _range_task(task) -> tuple[int, dict | None, tuple | None]:
    """(rows, counts by setting, None) of the whole lines in bytes lo ... hi-1
    of a records file, each setting's counted into one phase bin, or (0,
    None, (index, fields)) of the first line `_parse_block` rejects, by
    bisection."""
    path, lo, hi = task
    with open(path, "rb") as fh:
        fh.seek(lo)
        block = fh.read(hi - lo)
    try:
        rec = _read_block(block)
    except ValueError:
        lines = block.removesuffix(b"\n").split(b"\n")
        lo, hi = 0, len(lines)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _parse_block(b"\n".join(lines[lo:mid]) + b"\n")
                lo = mid
            except ValueError:
                hi = mid
        return 0, None, (lo, lines[lo].decode(errors="replace").split(","))
    del block  # the counting below peaks without it
    setting = rec.setting_id
    rec.phi_tac = np.zeros(len(setting))  # in the one bin, as every finite phi_tac
    if setting.min() == setting.max():  # one setting, as in most ranges
        return len(setting), {int(setting[0]): ShotCounts.of(rec, 1)}, None
    counts = {}
    for key in set(setting.tolist()):
        mask = setting == key
        shots = SimpleNamespace(**{name: c[mask] for name, c in vars(rec).items()})
        counts[key] = ShotCounts.of(shots, 1)
    return len(setting), counts, None
