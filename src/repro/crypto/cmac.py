"""AES-CMAC (NIST SP 800-38B).

CMAC is the MAC mandated by the SHE specification and the workhorse of the
framework: firmware authentication (secure boot), CAN message authentication
(E3), and SHE key-update protocol tags all use it.
"""

from __future__ import annotations

import struct

from repro.crypto.aes import AES
from repro.crypto.util import constant_time_eq

_RB = 0x87  # constant for 128-bit block subkey derivation


def _dbl(value: int) -> int:
    """Doubling in GF(2^128): shift left one bit, reduce by ``_RB``."""
    value <<= 1
    if value >> 128:
        value ^= (1 << 128) | _RB
    return value


def aes_cmac(key: bytes, message: bytes, tag_len: int = 16) -> bytes:
    """Compute AES-CMAC over ``message``; optionally truncate to ``tag_len``.

    Truncation (to 2/4/8 bytes) is how CAN authentication schemes fit a tag
    into an 8-byte frame -- the security-vs-bus-load knob of experiment E3.

    The chain runs on :meth:`AES.encrypt_words`: the padded, subkey-masked
    message is unpacked once into big-endian 32-bit words, and the CBC
    state stays four ints from the first block to the tag.

    >>> key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    >>> aes_cmac(key, b"").hex()
    'bb1d6929e95937287fa37d129b756746'
    """
    if not 1 <= tag_len <= 16:
        raise ValueError("tag_len must be in 1..16")
    encrypt = AES(key).encrypt_words
    l0, l1, l2, l3 = encrypt(0, 0, 0, 0)
    k1 = _dbl(l0 << 96 | l1 << 64 | l2 << 32 | l3)

    if message and len(message) % 16 == 0:
        subkey = k1
    else:
        # Incomplete (or empty) last block: 10* padding, masked with K2.
        message = message + b"\x80" + bytes(15 - len(message) % 16)
        subkey = _dbl(k1)
    last = int.from_bytes(message[-16:], "big") ^ subkey
    words = struct.unpack(f">{len(message) // 4}I",
                          message[:-16] + last.to_bytes(16, "big"))

    x0 = x1 = x2 = x3 = 0
    it = iter(words)
    for w0, w1, w2, w3 in zip(it, it, it, it):
        x0, x1, x2, x3 = encrypt(x0 ^ w0, x1 ^ w1, x2 ^ w2, x3 ^ w3)
    return struct.pack(">4I", x0, x1, x2, x3)[:tag_len]


def cmac_verify(key: bytes, message: bytes, tag: bytes) -> bool:
    """Constant-time CMAC verification against a possibly truncated tag."""
    expected = aes_cmac(key, message, tag_len=len(tag))
    return constant_time_eq(expected, tag)
