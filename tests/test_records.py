"""The records reader against `np.loadtxt`: `_read_block` reads the lines in
the writer's form by byte arithmetic and any other line with `_parse_block`,
and must read every block as `_parse_block` alone does, value for value on
the columns it returns, and raise exactly where it raises."""

import math

import numpy as np
import pytest

import spinherald.records
from spinherald.cli import read_counts
from spinherald.engine import ShotFrame
from spinherald.records import _HEADER, _parse_block, _read_block, _record_lines
from spinherald.tomography import ShotCounts

INT64_MAX = 2**63 - 1


def frame(rng, n, shot_id=None, phi_tac=None, n_attempts=None) -> ShotFrame:
    return ShotFrame(
        shot_id=np.arange(n, dtype=np.int64) if shot_id is None else shot_id,
        branch=rng.integers(0, 3, n).astype(np.int8),
        phi_tac=rng.uniform(0.0, 2 * math.pi, n) if phi_tac is None else phi_tac,
        outcome_up=rng.random(n) < 0.5,
        n_attempts=rng.geometric(0.05, n).astype(np.int64) if n_attempts is None else n_attempts,
    )


def loadtxt_columns(block: bytes) -> dict:
    """`_parse_block`'s rows as the columns that `_read_block` returns."""
    rec = _parse_block(block)
    return {
        "setting_id": rec["setting_id"],
        "branch": rec["branch"],
        "outcome_up": rec["outcome"] == b"up",
        "n_attempts": rec["n_attempts"],
    }


def assert_reads_as_loadtxt(block: bytes) -> None:
    expected = loadtxt_columns(block)
    rows = _read_block(block)
    assert sorted(vars(rows)) == sorted(expected)
    for name, column in expected.items():
        got = getattr(rows, name)
        assert len(got) == len(column), name
        assert np.array_equal(got, column), name


def test_reader_reads_writer_lines_as_loadtxt(tmp_path):
    rng = np.random.default_rng(60)
    n = 3000
    big = np.array([10**15, 10**16, 10**17 + 3, 10**18 - 1, 10**18, INT64_MAX])
    frames = {
        0: frame(rng, n),  # the demo's form: phi_tac in [0, 2 pi)
        # phi_tac over every decade the writer prints, in exponent form below
        # 1e-4 and from 1e9, and zeros
        3: frame(rng, n, phi_tac=np.concatenate([
            10 ** rng.uniform(-12, 12, n - 4), [0.0, -0.0, 1e-4, 9.99999999e8]
        ])),
        # shot_id and n_attempts of 16-19 digits
        7: frame(rng, len(big), shot_id=big, n_attempts=big[::-1].copy()),
        10**14: frame(rng, 5),  # setting_id of 15, 16 and 19 digits
        10**15: frame(rng, 5),
        INT64_MAX: frame(rng, 5),
    }
    body = b"".join(_record_lines(k, f) for k, f in frames.items())
    assert_reads_as_loadtxt(body)
    assert_reads_as_loadtxt(body.removesuffix(b"\n"))  # the file's last line
    path = tmp_path / "r.csv"
    path.write_bytes(_HEADER + b"\n" + body)
    counts = read_counts(path)
    assert list(counts) == sorted(frames)
    for key, f in frames.items():
        expected = ShotCounts.of(f, 1)
        assert np.array_equal(counts[key].n, expected.n)
        assert counts[key].attempts == expected.attempts


def test_reader_parses_only_lines_outside_the_writer_form_with_loadtxt(monkeypatch):
    rng = np.random.default_rng(61)
    phi = rng.uniform(0.0, 2 * math.pi, 500)
    phi[[3, 250]] = 5e-5, 0.0  # exponent form, and no point
    body = _record_lines(4, frame(rng, 500, phi_tac=phi))
    calls = []

    def parse(block):
        calls.append(block)
        return _parse_block(block)

    monkeypatch.setattr(spinherald.records, "_parse_block", parse)
    _read_block(body)
    lines = body.splitlines(keepends=True)
    assert calls == [lines[3] + lines[250]]
    calls.clear()
    _read_block(b"".join(lines[4:250]))
    assert calls == []


LOOSE = (
    b"007,+3,01,.5,up,1",  # signs, leading zeros and a bare fraction
    b"-0,3,2,5E-1,down,4",
    b"5,3,1,1.5e3,up,2",  # a letter among a writer-form line's digits
    b"1,2,0,-0,down,0",
    b"12,3,2,3,up,7",  # phi_tac with no point
    b"9,0,1,00.25,up,007",  # the writer's form, with leading zeros
    b"8,6,2,0.000000000000001,up,3",  # 16 phi_tac digits
    b"1234567890123456789,6,1,0.5,down,5",  # a 19-digit shot_id
    b"4,1,02,0.5,up,2",  # a branch of two digits
    b"4,1,1,2.,up,2",  # an empty fraction
)


@pytest.mark.parametrize("seed", range(4))
def test_reader_puts_loose_lines_back_in_their_rows(seed):
    rng = np.random.default_rng(seed)
    lines = _record_lines(11, frame(rng, 40)).splitlines(keepends=True)
    for loose in rng.permutation(np.array(LOOSE, dtype=object))[: 2 + seed]:
        lines.insert(rng.integers(0, len(lines) + 1), loose + b"\n")
    assert_reads_as_loadtxt(b"".join(lines))
    for loose in LOOSE:
        assert_reads_as_loadtxt(loose + b"\n")


@pytest.mark.parametrize(
    "bad",
    [
        b"4,1,10,0.5,up,2",
        b"4,1,3,0.5,up,2",
        b"4,1,1,0.5,upp,2",
        b"4,1,1,0.5,dow,2",
        b"4,1,1,0.5,downx,2",
        b"4,1,1,0.5,Up,2",
        b"4,1,1,0.5,pu,2",
        b"4,1,1,0.5,up,2x",
        b"4,1,1,0.5,,2",
        b"99999999999999999999,1,1,0.5,up,2",
    ],
)
def test_reader_rejects_writer_like_lines_outside_the_grammar(bad):
    lines = _record_lines(2, frame(np.random.default_rng(63), 20)).splitlines(keepends=True)
    lines.insert(9, bad + b"\n")
    for block in (b"".join(lines), bad + b"\n"):
        with pytest.raises(ValueError):
            _parse_block(block)
        with pytest.raises(ValueError):
            _read_block(block)


# bytes a mutation writes: the records grammar, other separators, and bytes
# that no records file holds
MUTATIONS = b"0123456789,.\n+-eEupdownUPx \t\r\"#_\x00\x80\xff"


def test_reader_raises_where_loadtxt_raises_on_single_byte_mutations(tmp_path):
    rng = np.random.default_rng(62)
    phi = rng.uniform(0.0, 2 * math.pi, 30)
    phi[7] = 3e-5  # one line in exponent form
    body = _record_lines(5, frame(rng, 30, phi_tac=phi, shot_id=np.arange(30) * 977))
    path, raised = tmp_path / "r.csv", 0
    for _ in range(2000):
        pos = int(rng.integers(len(body)))
        byte = MUTATIONS[rng.integers(len(MUTATIONS))] if rng.random() < 0.8 else rng.integers(256)
        text = body[:pos] + bytes([byte]) + body[pos + 1 :]
        try:
            loadtxt_columns(text)
        except ValueError:
            raised += 1
            with pytest.raises(ValueError):
                _read_block(text)
            lines = text.removesuffix(b"\n").split(b"\n")
            for k, line in enumerate(lines):  # the first line rejected alone
                try:
                    _parse_block(line + b"\n")
                except ValueError:
                    break
            fields = lines[k].decode(errors="replace").split(",")
            path.write_bytes(_HEADER + b"\n" + text)
            with pytest.raises(ValueError) as error:
                read_counts(path)
            assert str(error.value) == f"{path}:{k + 2}: malformed record {fields!r}"
        else:
            assert_reads_as_loadtxt(text)
    assert 200 < raised < 1800  # both outcomes are well covered
