"""Toy AEAD with the multipath nonce construction of Sec. 6.

The paper keeps QUIC packet protection unchanged except for the AEAD
nonce: with per-path packet-number spaces the (key, packet number)
pair no longer uniquely identifies a packet, so the draft constructs a
96-bit *path-and-packet-number* -- the 32-bit CID sequence number,
two zero bits, then the 62-bit packet number -- left-pads it to the IV
size, and XORs it with the IV.

We implement that construction verbatim; it is the part of this module
the protocol logic depends on (same packet number on two paths, two
different nonces).  The cipher around it is a stand-in sized to cost
two C-level hash calls per packet:

- keystream: one SHAKE-128 XOF digest of exactly ``len(payload)``
  bytes over ``"stream" || key || nonce``, XORed with the payload as a
  single big-integer operation;
- tag: one SHA-256 over ``"tag" || key || nonce || aad || ciphertext``,
  truncated to 16 bytes.

Both hash states are primed with the key once per
:class:`PacketProtection` and copied per packet.  ``open`` always
verifies the tag before decrypting.  Not secure, but it round-trips,
detects any flipped bit in ciphertext, tag or associated data, and
rejects a packet opened under another path's nonce.  ``seal``/``open``
accept any bytes-like payload/AAD (the connection passes ``memoryview``
slices of the datagram, avoiding copies).

Ciphertext bytes are not an invariant of this repo: virtual time
depends on packet sizes only.  The nonce bytes are, and
``tests/test_hotpath_reference.py`` pins them.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

BytesLike = Union[bytes, bytearray, memoryview]

TAG_LENGTH = 16
IV_LENGTH = 12  # 96 bits

_MAX_CID_SEQUENCE = 1 << 32
_MAX_PACKET_NUMBER = 1 << 62


def _nonce(iv_int: int, iv_len: int, cid_sequence_number: int,
           packet_number: int) -> bytes:
    if not 0 <= cid_sequence_number < _MAX_CID_SEQUENCE:
        raise ValueError("CID sequence number must fit 32 bits")
    if not 0 <= packet_number < _MAX_PACKET_NUMBER:
        raise ValueError("packet number must fit 62 bits")
    # 32-bit CID seq, 2 zero bits, 62-bit packet number = 96 bits,
    # left-padded to the IV size and XORed with the IV.
    return (iv_int ^ (cid_sequence_number << 64) ^ packet_number
            ).to_bytes(iv_len, "big")


def build_nonce(iv: bytes, cid_sequence_number: int,
                packet_number: int) -> bytes:
    """Multipath AEAD nonce: IV XOR padded path-and-packet-number."""
    if len(iv) < IV_LENGTH:
        raise ValueError(f"IV must be at least {IV_LENGTH} bytes")
    return _nonce(int.from_bytes(iv, "big"), len(iv),
                  cid_sequence_number, packet_number)


class PacketProtection:
    """Seals and opens packet payloads with the multipath nonce."""

    __slots__ = ("key", "iv", "_iv_int", "_iv_len", "_stream_base",
                 "_tag_base")

    def __init__(self, key: bytes, iv: Optional[bytes] = None) -> None:
        if not key:
            raise ValueError("key must be non-empty")
        self.key = bytes(key)
        self.iv = bytes(iv) if iv is not None else hashlib.sha256(
            b"iv" + self.key).digest()[:IV_LENGTH]
        if len(self.iv) < IV_LENGTH:
            raise ValueError(f"IV must be at least {IV_LENGTH} bytes")
        self._iv_int = int.from_bytes(self.iv, "big")
        self._iv_len = len(self.iv)
        #: hash states primed with the key; copied once per packet
        self._stream_base = hashlib.shake_128(b"stream" + self.key)
        self._tag_base = hashlib.sha256(b"tag" + self.key)

    def _xor_keystream(self, nonce: bytes, data: BytesLike) -> bytes:
        length = len(data)
        if not length:
            return b""
        xof = self._stream_base.copy()
        xof.update(nonce)
        from_bytes = int.from_bytes
        return (from_bytes(data, "big")
                ^ from_bytes(xof.digest(length), "big")
                ).to_bytes(length, "big")

    def _tag(self, nonce: bytes, aad: BytesLike,
             ciphertext: BytesLike) -> bytes:
        mac = self._tag_base.copy()
        mac.update(nonce)
        mac.update(aad)
        mac.update(ciphertext)
        return mac.digest()[:TAG_LENGTH]

    def seal(self, plaintext: BytesLike, aad: BytesLike,
             cid_sequence_number: int, packet_number: int) -> bytes:
        """Encrypt and authenticate; returns ciphertext || tag."""
        nonce = _nonce(self._iv_int, self._iv_len, cid_sequence_number,
                       packet_number)
        ciphertext = self._xor_keystream(nonce, plaintext)
        return ciphertext + self._tag(nonce, aad, ciphertext)

    def open(self, sealed: BytesLike, aad: BytesLike,
             cid_sequence_number: int, packet_number: int) -> bytes:
        """Verify and decrypt; raises ValueError on authentication failure."""
        if len(sealed) < TAG_LENGTH:
            raise ValueError("sealed payload shorter than tag")
        nonce = _nonce(self._iv_int, self._iv_len, cid_sequence_number,
                       packet_number)
        view = memoryview(sealed)
        ciphertext = view[:-TAG_LENGTH]
        if self._tag(nonce, aad, ciphertext) != view[-TAG_LENGTH:]:
            raise ValueError("AEAD authentication failed")
        return self._xor_keystream(nonce, ciphertext)


def derive_connection_key(secret: bytes) -> bytes:
    """Derive the shared 1-RTT key from a handshake secret."""
    return hashlib.sha256(b"quic-key" + secret).digest()
