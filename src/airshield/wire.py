"""Actuator command codec and telemetry journal.

Command frames are 5 bytes on the serial link to the speed-controller
board: [0xA5, seq, opcode, payload, checksum] with an XOR checksum over
seq/opcode/payload. XOR catches every single-bit corruption of the body;
multi-bit errors can alias, which is acceptable on a short point-to-point
link. Payloads are duty in 0.5% units (0-200); STOP and PING conventionally
carry 0x00 but the codec round-trips the full payload range for every
opcode.

Telemetry is append-only JSON lines. The writer takes records, which it
encodes one compact line each, and blocks of lines its caller has already
encoded, such as those ``DistanceTrace.jsonl()`` gives. A partial trailing
line (torn write on crash) is tolerated on read and reported; a malformed
line anywhere else is an error carrying the 1-based line number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Iterable

__all__ = [
    "FRAME_HEADER",
    "FRAME_LEN",
    "MAX_PAYLOAD",
    "Opcode",
    "CommandFrame",
    "PayloadOutOfRange",
    "BadLength",
    "BadHeader",
    "BadChecksum",
    "UnknownOpcode",
    "IoFailure",
    "MalformedRecord",
    "encode",
    "decode",
    "journal_append",
    "journal_read",
    "trace_filename",
]

FRAME_HEADER = 0xA5
FRAME_LEN = 5
MAX_PAYLOAD = 200  # duty in 0.5% units


class Opcode(IntEnum):
    SET_DUTY = 0x01
    STOP = 0x02
    PING = 0x03


class PayloadOutOfRange(ValueError):
    pass


class BadLength(ValueError):
    pass


class BadHeader(ValueError):
    pass


class BadChecksum(ValueError):
    pass


class UnknownOpcode(ValueError):
    pass


class IoFailure(OSError):
    pass


class MalformedRecord(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class CommandFrame:
    seq: int
    opcode: Opcode
    payload: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seq <= 255:
            raise ValueError(f"seq must be an 8-bit counter value, got {self.seq}")
        if self.opcode not in Opcode.__members__.values():
            raise UnknownOpcode(f"opcode {self.opcode!r} is not defined")
        if not 0 <= self.payload <= MAX_PAYLOAD:
            raise PayloadOutOfRange(f"payload must be in [0, {MAX_PAYLOAD}], got {self.payload}")

    @property
    def checksum(self) -> int:
        return self.seq ^ int(self.opcode) ^ self.payload


def encode(frame: CommandFrame) -> bytes:
    """Serialize to the 5-byte layout [header, seq, opcode, payload, checksum]."""
    return bytes([FRAME_HEADER, frame.seq, int(frame.opcode), frame.payload, frame.checksum])


def decode(data: bytes) -> CommandFrame:
    """Parse and validate a 5-byte frame; the inverse of encode."""
    if len(data) != FRAME_LEN:
        raise BadLength(f"frame must be exactly {FRAME_LEN} bytes, got {len(data)}")
    if data[0] != FRAME_HEADER:
        raise BadHeader(f"expected header 0x{FRAME_HEADER:02X}, got 0x{data[0]:02X}")
    seq, opcode_raw, payload, checksum = data[1], data[2], data[3], data[4]
    if checksum != seq ^ opcode_raw ^ payload:
        raise BadChecksum(
            f"checksum 0x{checksum:02X} does not match body 0x{seq ^ opcode_raw ^ payload:02X}"
        )
    try:
        opcode = Opcode(opcode_raw)
    except ValueError:
        raise UnknownOpcode(f"opcode 0x{opcode_raw:02X} is not defined") from None
    return CommandFrame(seq=seq, opcode=opcode, payload=payload)


# ---------------------------------------------------------------------------
# JSON-lines journal
# ---------------------------------------------------------------------------

def journal_append(path: str | Path, records: Iterable[str | dict]) -> None:
    """Append records as JSON lines.

    ``records`` is an iterable whose dicts are each written as one compact
    line and whose strs, blocks of complete, already encoded lines, are
    written as they are.
    """
    try:
        with open(path, "a", encoding="utf-8") as fh:
            for rec in records:
                if isinstance(rec, str):
                    fh.write(rec)
                else:
                    fh.write(json.dumps(rec, separators=(",", ":")))
                    fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot append to journal {path}: {exc}") from exc


def journal_read(path: str | Path) -> tuple[list[dict], bool]:
    """Read all records in write order.

    Returns (records, truncated). Blank lines are skipped, and a complete
    line that does not parse to a JSON object raises MalformedRecord with its
    line number. The text after the last newline is a record if it parses,
    and raises unless an object; otherwise it is a write torn by a crash, and
    truncated is True unless it is empty.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read journal {path}: {exc}") from exc
    records: list[dict] = []
    *lines, tail = raw.split(b"\n")
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(_record(i, json.loads(line)))
        except json.JSONDecodeError as exc:
            raise MalformedRecord(i, str(exc)) from exc
    try:
        records.append(_record(len(lines) + 1, json.loads(tail)))
    except json.JSONDecodeError:
        return records, bool(tail)
    return records, False


def _record(line_no: int, value: object) -> dict:
    if not isinstance(value, dict):
        raise MalformedRecord(line_no, f"a record is a JSON object, got {type(value).__name__}")
    return value


def trace_filename(condition: str, seed: int) -> str:
    return f"trial_{condition}_{seed}.jsonl"
