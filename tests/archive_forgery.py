"""Damaged copies of uncompressed numpy .npz archives, shared by the tests
of every reader of that format."""

import re


def npy_header(archive, member):
    """Offset and length of the header text of one member's .npy file
    (format version 1) in the bytes of an uncompressed .npz archive."""
    start = archive.index(b"\x93NUMPY", archive.index(member.encode()))
    return start + 10, int.from_bytes(archive[start + 8:start + 10], "little")


def claim_rows(archive, member, rows):
    """The archive with one member's .npy header claiming `rows` rows, its
    padding shortened to keep its length, so that only the member's CRC-32
    tells the forgery from a genuine archive."""
    start, length = npy_header(archive, member)
    text = re.sub(rb"'shape': \(\d+", b"'shape': (%d" % rows,
                  archive[start:start + length])
    text = text.rstrip(b" \n").ljust(length - 1) + b"\n"
    assert len(text) == length
    return archive[:start] + text + archive[start + length:]


def flip_first_sign(archive, member):
    """The archive with the sign bit of one float64 member's first entry
    flipped."""
    start, length = npy_header(archive, member)
    flipped = bytearray(archive)
    flipped[start + length + 7] ^= 0x80
    return bytes(flipped)
