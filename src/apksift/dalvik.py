"""Dalvik instruction-stream geometry.

Instruction sizes (in 16-bit code units) for all 256 opcode bytes. The size
table was generated from the instruction-format tables published at
https://source.android.com/docs/core/runtime/instruction-formats and covers
DEX versions 035 through 039; spot values are asserted by the test suite.

Three pseudo-instructions are variable-sized and are NOT covered by the
table: packed-switch-payload (ident 0x0100), sparse-switch-payload (0x0200)
and fill-array-data-payload (0x0300). All three share opcode byte 0x00 with
`nop` and are distinguished by the high byte of the first code unit, so a
walker sizes every opcode-0 unit with ``payload_units`` alone.
"""

# fmt: off
OPCODE_UNITS = (
    1, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 1, 1, 1, 1, 1,  # 0x00-0x0f
    1, 1, 1, 2, 3, 2, 2, 3, 5, 2, 2, 3, 2, 1, 1, 2,  # 0x10-0x1f
    2, 1, 2, 2, 3, 3, 3, 1, 1, 2, 3, 3, 3, 2, 2, 2,  # 0x20-0x2f
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1,  # 0x30-0x3f
    1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,  # 0x40-0x4f
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,  # 0x50-0x5f
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3,  # 0x60-0x6f
    3, 3, 3, 1, 3, 3, 3, 3, 3, 1, 1, 1, 1, 1, 1, 1,  # 0x70-0x7f
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,  # 0x80-0x8f
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,  # 0x90-0x9f
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,  # 0xa0-0xaf
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,  # 0xb0-0xbf
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,  # 0xc0-0xcf
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,  # 0xd0-0xdf
    2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,  # 0xe0-0xef
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 4, 4, 3, 3, 2, 2,  # 0xf0-0xff
)
# fmt: on

# Same table in bytes, one entry per opcode, for C-speed indexing in the
# stream walker (size * 2 = bytes consumed).
OPCODE_BYTES = bytes(u * 2 for u in OPCODE_UNITS)

# invoke-polymorphic (0xfa/0xfb) and invoke-custom (0xfc/0xfd) exist from
# DEX 038 on. They are size-skipped during stream walking but never counted
# as call sites: the reference vocabularies target API level 25 where they
# cannot occur.

PACKED_SWITCH_IDENT = 0x01  # high byte of first unit; full ident 0x0100
SPARSE_SWITCH_IDENT = 0x02  # 0x0200
FILL_ARRAY_IDENT = 0x03  # 0x0300


def payload_units(data: bytes, pos: int, end: int) -> int:
    """Size in code units of the opcode-0 instruction at byte ``pos``.

    ``pos`` points at a whole unit whose low byte is 0x00: a payload
    pseudo-instruction sized from its header, or a one-unit ``nop`` for any
    other high byte. ``end`` bounds the readable region; -1 means the
    payload header does not fit before it.
    """
    ident = data[pos + 1]
    if ident == PACKED_SWITCH_IDENT:
        if pos + 4 > end:
            return -1
        size = data[pos + 2] | (data[pos + 3] << 8)
        return size * 2 + 4
    if ident == SPARSE_SWITCH_IDENT:
        if pos + 4 > end:
            return -1
        size = data[pos + 2] | (data[pos + 3] << 8)
        return size * 4 + 2
    if ident == FILL_ARRAY_IDENT:
        if pos + 8 > end:
            return -1
        width = data[pos + 2] | (data[pos + 3] << 8)
        count = (
            data[pos + 4]
            | (data[pos + 5] << 8)
            | (data[pos + 6] << 16)
            | (data[pos + 7] << 24)
        )
        return (width * count + 1) // 2 + 4
    # nop, whatever its high byte
    return 1
