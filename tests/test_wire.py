import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airshield import wire
from airshield.wire import CommandFrame, Opcode


def test_encode_set_duty_full():
    frame = CommandFrame(seq=1, opcode=Opcode.SET_DUTY, payload=200)
    assert wire.encode(frame) == bytes([0xA5, 0x01, 0x01, 0xC8, 0xC8])


def test_encode_ping():
    frame = CommandFrame(seq=0, opcode=Opcode.PING, payload=0)
    assert wire.encode(frame) == bytes([0xA5, 0x00, 0x03, 0x00, 0x03])


def test_payload_out_of_range():
    with pytest.raises(wire.PayloadOutOfRange):
        CommandFrame(seq=0, opcode=Opcode.SET_DUTY, payload=201)


def test_sequence_number_beyond_8_bits_rejected():
    with pytest.raises(ValueError, match=r"^seq must be an 8-bit counter value, got 256$"):
        CommandFrame(seq=256, opcode=Opcode.PING)


def test_undefined_opcode_rejected():
    with pytest.raises(wire.UnknownOpcode, match=r"^opcode 127 is not defined$"):
        CommandFrame(seq=0, opcode=0x7F)


def test_decode_inverse_of_encode():
    frame = wire.decode(bytes([0xA5, 0x01, 0x01, 0xC8, 0xC8]))
    assert frame == CommandFrame(seq=1, opcode=Opcode.SET_DUTY, payload=200)


def test_decode_bad_checksum():
    with pytest.raises(wire.BadChecksum):
        wire.decode(bytes([0xA5, 0x01, 0x01, 0xC8, 0xC9]))


def test_decode_bad_header():
    with pytest.raises(wire.BadHeader):
        wire.decode(bytes([0x5A, 0x01, 0x01, 0xC8, 0xC8]))


def test_decode_bad_length():
    with pytest.raises(wire.BadLength):
        wire.decode(bytes([0xA5, 0x01, 0x01, 0xC8]))
    with pytest.raises(wire.BadLength):
        wire.decode(bytes(6))


def test_decode_unknown_opcode_with_valid_checksum():
    body = [0x00, 0x07, 0x00]
    data = bytes([0xA5, *body, body[0] ^ body[1] ^ body[2]])
    with pytest.raises(wire.UnknownOpcode):
        wire.decode(data)


def test_round_trip_sample_of_valid_frames():
    for opcode in Opcode:
        for payload in (0, 1, 100, 200):
            for seq in (0, 1, 127, 255):
                f = CommandFrame(seq=seq, opcode=opcode, payload=payload)
                assert wire.decode(wire.encode(f)) == f


frames = st.builds(CommandFrame, seq=st.integers(0, 255), opcode=st.sampled_from(Opcode),
                   payload=st.integers(0, wire.MAX_PAYLOAD))


@given(frames)
def test_single_bit_flips_rejected(frame):
    data = wire.encode(frame)
    assert wire.decode(data) == frame
    for bit in range(8 * wire.FRAME_LEN):
        corrupted = bytearray(data)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        # The header is checked first; any body or checksum flip breaks the XOR.
        with pytest.raises(wire.BadHeader if bit < 8 else wire.BadChecksum):
            wire.decode(bytes(corrupted))


# --- journal ---------------------------------------------------------------

def test_journal_round_trip(tmp_path):
    path = tmp_path / "j.jsonl"
    records = [{"t_ms": i, "dist_m": 0.1 * i, "state": "SAFE"} for i in range(3)]
    wire.journal_append(path, records)
    got, truncated = wire.journal_read(path)
    assert got == records
    assert not truncated


def test_journal_append_is_incremental(tmp_path):
    path = tmp_path / "j.jsonl"
    wire.journal_append(path, [{"a": 1}])
    wire.journal_append(path, [{"b": 2}])
    wire.journal_append(path, '{"c":3}\n\n{"d":4}\n')  # already encoded lines, one blank
    got, _ = wire.journal_read(path)
    assert got == [{"a": 1}, {"b": 2}, {"c": 3}, {"d": 4}]


def test_journal_append_writes_str_blocks_as_they_are(tmp_path):
    path = tmp_path / "j.jsonl"
    wire.journal_append(path, iter(['{"a": 1}\n{"b":2}\n', {"c": 3}, "", '{"d":4}\n']))
    assert path.read_bytes() == b'{"a": 1}\n{"b":2}\n{"c":3}\n{"d":4}\n'


def test_journal_tolerates_truncated_tail(tmp_path):
    # Torn writes, no newline: a partial record, and the whitespace before one.
    for k, tail in enumerate(('{"i": 2, "dist"', "  ")):
        path = tmp_path / f"j{k}.jsonl"
        wire.journal_append(path, [{"i": 0}, {"i": 1}])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(tail)
        got, truncated = wire.journal_read(path)
        assert got == [{"i": 0}, {"i": 1}]
        assert truncated


def test_journal_malformed_line_reports_position(tmp_path):
    path = tmp_path / "j.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"i": 0}) + "\n")
        fh.write("not json at all\n")
        fh.write(json.dumps({"i": 2}) + "\n")
    with pytest.raises(wire.MalformedRecord) as exc_info:
        wire.journal_read(path)
    assert exc_info.value.line_no == 2


@pytest.mark.parametrize("text, line_no", [
    ('1\n[2]\n"x"', 1),
    ('{"i": 0}\n[2]\n"x"', 2),
    ('{"i": 0}\n{"i": 1}\n"x"', 3),  # an unterminated tail
    ('{"i": 0}\n\nnull\n', 3),
])
def test_journal_read_refuses_records_that_are_not_objects(tmp_path, text, line_no):
    path = tmp_path / "j.jsonl"
    path.write_text(text)
    with pytest.raises(wire.MalformedRecord, match="JSON object") as exc_info:
        wire.journal_read(path)
    assert exc_info.value.line_no == line_no


def test_journal_empty_file(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text("")
    assert wire.journal_read(path) == ([], False)


def test_journal_missing_file_is_io_failure(tmp_path):
    with pytest.raises(wire.IoFailure):
        wire.journal_read(tmp_path / "nope.jsonl")


def test_journal_append_to_an_unwritable_path_is_io_failure(tmp_path):
    # The path's parent is a file, so the journal cannot be opened.
    (tmp_path / "plain").write_text("")
    path = tmp_path / "plain" / "journal.jsonl"
    with pytest.raises(wire.IoFailure, match=f"^cannot append to journal {re.escape(str(path))}: "):
        wire.journal_append(path, [{"t_ms": 0}])


json_values = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=8))
journals = st.lists(st.dictionaries(st.text(max_size=4), json_values, max_size=3),
                    min_size=1, max_size=4)


# Each example writes and reads the file once per byte offset.
@settings(max_examples=30)
@given(journals)
def test_journal_read_keeps_every_complete_record_at_every_truncation(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "j.jsonl"
        wire.journal_append(path, records)
        data = path.read_bytes()
        lines = data.split(b"\n")[:-1]
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            got, truncated = wire.journal_read(path)
            complete = data[:cut].count(b"\n")
            tail = data[:cut].rsplit(b"\n", 1)[-1]
            # A torn tail that is a whole line but for its newline still parses.
            whole_tail = bool(tail) and tail == lines[complete]
            assert got == records[:complete + whole_tail]
            assert truncated == (bool(tail) and not whole_tail)


def test_trace_filename_convention():
    assert wire.trace_filename("va", 42) == "trial_va_42.jsonl"

