"""AEAD_AES_128_GCM packet protection with the multipath nonce of Sec. 6.

The paper keeps QUIC packet protection unchanged except for the AEAD
nonce: with per-path packet-number spaces the (key, packet number)
pair no longer uniquely identifies a packet, so the draft constructs a
96-bit *path-and-packet-number* -- the 32-bit CID sequence number,
two zero bits, then the 62-bit packet number -- left-pads it to the IV
size, and XORs it with the IV.

We implement that construction verbatim; it is the part of this module
the protocol logic depends on (same packet number on two paths, two
different nonces).  Around it is the cipher real QUIC seals 1-RTT
packets with, AEAD_AES_128_GCM (RFC 9001 §5.3): a 16-byte key, a
12-byte nonce and a 16-byte tag.  It runs in the ``libcrypto`` that
``hashlib`` already links.  ``ctypes`` opens the ``_hashlib`` extension
itself, and symbol lookup on that handle resolves that very library,
so nothing new is loaded or declared.  That needs a POSIX CPython whose
``_hashlib`` links ``libcrypto`` as a shared library; elsewhere this
module raises ``ImportError``.  It is the repo's only foreign-function
boundary (``tools/lint.py``, rule FFI).

- One ``EVP_CIPHER_CTX`` per direction lives for the process.  Each
  packet re-keys it in the same ``EVP_*Init_ex`` call that sets the
  nonce, so a :class:`PacketProtection` holds only bytes: no C handle,
  no finalizer, nothing to tear down.  The simulator is single-threaded;
  a forked worker gets its own copy of both contexts.
- A seal is five foreign calls (init, AAD, data, final, get tag); an
  open is five (init, AAD, data, set tag, final).  The open's final
  call verifies the tag; a mismatch raises ``ValueError``.  Each goes
  through the builtin ``_ctypes.call_function``, so a profiler counts
  it as a C call made from this module.
- A sealed datagram is ``header || ciphertext || tag`` with the header
  as associated data; :meth:`PacketProtection.seal` returns that whole
  datagram and :meth:`PacketProtection.open` takes it with the header
  length, so no caller slices or joins the layout.
- A seal copies the payload into one preallocated buffer, encrypts it
  there and joins the header to it on the way out; an open copies the
  whole datagram into that buffer and decrypts it there.  Inputs may
  be any bytes-like object (only a header that is not ``bytes`` is
  copied into one).  An input that would not fit the buffer raises
  ``ValueError`` before any foreign call: in ``ctypes`` an overflow
  corrupts memory instead of raising.
- Importing this module runs one known-answer seal and open and raises
  ``ImportError`` naming the library if either fails.
- ``_seal`` / ``_open`` read 16 bytes of key and 12 of nonce whatever
  they are given, so they stay private: :class:`PacketProtection` is
  what guarantees both lengths.

Virtual time depends on packet sizes only, and those are the same
under any 16-byte-tag AEAD.  ``tests/test_hotpath_reference.py`` pins
the IV and nonce bytes and checks the cipher against the GCM
specification's Test Case 4.
"""

from __future__ import annotations

import ctypes
import hashlib
from typing import Union

import _hashlib

BytesLike = Union[bytes, bytearray, memoryview]

TAG_LENGTH = 16
IV_LENGTH = 12  # 96 bits
KEY_LENGTH = 16  # AES-128

_MAX_CID_SEQUENCE = 1 << 32
_MAX_PACKET_NUMBER = 1 << 62

#: the library every foreign call below goes to: the ``_hashlib``
#: extension, whose symbol lookup finds the ``libcrypto`` it links
LIBRARY = getattr(_hashlib, "__file__", None)
#: the largest plaintext one datagram carries (a UDP payload is < 64 KiB)
MAX_PLAINTEXT = (1 << 16) - TAG_LENGTH
#: the longest header an opened datagram may lead with; ``packets.py``
#: encodes at most 517 B (flags, two length-prefixed CIDs, packet number)
MAX_HEADER = 1 << 10

_EVP_CTRL_GCM_GET_TAG = 0x10
_EVP_CTRL_GCM_SET_TAG = 0x11

try:
    # ``call_function(address, args)`` is the ``_ctypes`` builtin that
    # calls a C function by address.  Being a builtin, each foreign call
    # is seen by ``cProfile`` and ``sys.setprofile`` as a C call made
    # from this module, so the bench counts pass charges the cipher's
    # calls to ``crypto``; a call through a ``ctypes`` function-pointer
    # object is invisible to both.  It costs ~0.07 us more per call
    # (2-vCPU Xeon, Python 3.11).
    from _ctypes import call_function as _call
    _lib = ctypes.CDLL(LIBRARY)
    _lib.EVP_CIPHER_CTX_new.restype = ctypes.c_void_p
    _lib.EVP_aes_128_gcm.restype = ctypes.c_void_p

    def _address(name: str) -> int:
        return ctypes.cast(getattr(_lib, name), ctypes.c_void_p).value

    # No prototypes: ``call_function`` passes ``bytes`` as ``char *``,
    # ``None`` as NULL, ``byref`` and ctypes objects as pointers and
    # ``int`` as ``int``, and returns the C ``int`` result.  Every call
    # below passes only those, each where the prototype takes that
    # type, and every function called returns an ``int``.
    _ENCRYPT_INIT = _address("EVP_EncryptInit_ex")
    _ENCRYPT_UPDATE = _address("EVP_EncryptUpdate")
    _ENCRYPT_FINAL = _address("EVP_EncryptFinal_ex")
    _DECRYPT_INIT = _address("EVP_DecryptInit_ex")
    _DECRYPT_UPDATE = _address("EVP_DecryptUpdate")
    _DECRYPT_FINAL = _address("EVP_DecryptFinal_ex")
    _CIPHER_CTRL = _address("EVP_CIPHER_CTX_ctrl")
    _SEAL_CTX = ctypes.c_void_p(_lib.EVP_CIPHER_CTX_new())
    _OPEN_CTX = ctypes.c_void_p(_lib.EVP_CIPHER_CTX_new())
    _gcm = ctypes.c_void_p(_lib.EVP_aes_128_gcm())
    _ready = (_SEAL_CTX.value and _OPEN_CTX.value and _gcm.value
              and _call(_ENCRYPT_INIT,
                        (_SEAL_CTX, _gcm, None, None, None)) == 1
              and _call(_DECRYPT_INIT,
                        (_OPEN_CTX, _gcm, None, None, None)) == 1)
except (ImportError, OSError, AttributeError) as exc:
    raise ImportError(f"AES-128-GCM: cannot use libcrypto through "
                      f"{LIBRARY}: {exc}") from exc
if not _ready:
    raise ImportError(f"AES-128-GCM: libcrypto through {LIBRARY} did not "
                      f"initialise a cipher context")

_BUFFER = ctypes.create_string_buffer(MAX_HEADER + MAX_PLAINTEXT
                                      + TAG_LENGTH)
_VIEW = memoryview(_BUFFER).cast("B")
_OUT_LEN = ctypes.byref(ctypes.c_int())
_byref = ctypes.byref


def _seal(key: bytes, nonce: bytes, payload: BytesLike,
          header: BytesLike) -> bytes:
    """AEAD_AES_128_GCM with ``header`` as associated data: returns the
    datagram ``header || ciphertext || 16-byte tag``.

    ``key`` must be 16 ``bytes`` and ``nonce`` 12.
    """
    length = len(payload)
    if length > MAX_PLAINTEXT:
        raise ValueError(f"plaintext of {length} B exceeds "
                         f"{MAX_PLAINTEXT} B")
    if type(header) is not bytes:
        header = bytes(header)
    _VIEW[:length] = payload
    end = _byref(_BUFFER, length)
    if not (_call(_ENCRYPT_INIT, (_SEAL_CTX, None, None, key, nonce)) == 1
            and _call(_ENCRYPT_UPDATE,
                      (_SEAL_CTX, None, _OUT_LEN, header, len(header))) == 1
            and _call(_ENCRYPT_UPDATE,
                      (_SEAL_CTX, _BUFFER, _OUT_LEN, _BUFFER, length)) == 1
            and _call(_ENCRYPT_FINAL, (_SEAL_CTX, end, _OUT_LEN)) == 1
            and _call(_CIPHER_CTRL, (_SEAL_CTX, _EVP_CTRL_GCM_GET_TAG,
                                     TAG_LENGTH, end)) == 1):
        raise ValueError("AES-128-GCM seal failed")
    return header + _VIEW[:length + TAG_LENGTH].tobytes()


def _open(key: bytes, nonce: bytes, datagram: BytesLike,
          header_len: int) -> bytes:
    """Verify ``datagram`` (``header || ciphertext || tag``, the first
    ``header_len`` bytes authenticated as associated data) and return
    its plaintext; ``ValueError`` if the tag does not match.  ``key``
    must be 16 ``bytes`` and ``nonce`` 12."""
    size = len(datagram)
    end = size - TAG_LENGTH
    if not 0 <= header_len <= MAX_HEADER or end < header_len:
        raise ValueError("datagram shorter than header and tag")
    if end - header_len > MAX_PLAINTEXT:
        raise ValueError(f"ciphertext of {end - header_len} B exceeds "
                         f"{MAX_PLAINTEXT} B")
    _VIEW[:size] = datagram
    body = _byref(_BUFFER, header_len)
    tag = _byref(_BUFFER, end)
    if not (_call(_DECRYPT_INIT, (_OPEN_CTX, None, None, key, nonce)) == 1
            and _call(_DECRYPT_UPDATE,
                      (_OPEN_CTX, None, _OUT_LEN, _BUFFER, header_len)) == 1
            and _call(_DECRYPT_UPDATE, (_OPEN_CTX, body, _OUT_LEN, body,
                                        end - header_len)) == 1
            and _call(_CIPHER_CTRL, (_OPEN_CTX, _EVP_CTRL_GCM_SET_TAG,
                                     TAG_LENGTH, tag)) == 1
            and _call(_DECRYPT_FINAL, (_OPEN_CTX, tag, _OUT_LEN)) == 1):
        raise ValueError("AEAD authentication failed")
    return _VIEW[header_len:end].tobytes()


def _known_answer() -> bool:
    """GCM specification Test Case 3 (McGrew & Viega), sealed and
    opened through the functions above."""
    key = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
    nonce = bytes.fromhex("cafebabefacedbaddecaf888")
    plaintext = bytes.fromhex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255")
    sealed = _seal(key, nonce, plaintext, b"")
    try:
        opened = _open(key, nonce, sealed, 0)
    except ValueError:
        return False
    return opened == plaintext and sealed[-TAG_LENGTH:] == bytes.fromhex(
        "4d5c2af327cd64a62cf35abd2ba6fab4")


if not _known_answer():
    raise ImportError(f"AES-128-GCM through {LIBRARY} failed its "
                      f"known-answer test")


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


class PacketProtection:
    """Seals and opens packet payloads with the multipath nonce."""

    __slots__ = ("iv", "aes_key", "_iv_int")

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ValueError("key must be non-empty")
        key = bytes(key)
        self.iv = hashlib.sha256(b"iv" + key).digest()[:IV_LENGTH]
        self.aes_key = hashlib.sha256(b"aes" + key).digest()[:KEY_LENGTH]
        self._iv_int = int.from_bytes(self.iv, "big")

    def seal(self, payload: BytesLike, header: BytesLike,
             cid_sequence_number: int, packet_number: int) -> bytes:
        """Encrypt ``payload`` under ``header``; returns the datagram
        ``header || ciphertext || tag``."""
        return _seal(self.aes_key, _nonce(
            self._iv_int, IV_LENGTH, cid_sequence_number, packet_number),
            payload, header)

    def open(self, datagram: BytesLike, header_len: int,
             cid_sequence_number: int, packet_number: int) -> bytes:
        """Authenticate ``datagram`` (its first ``header_len`` bytes as
        associated data) and return the plaintext; raises ValueError on
        authentication failure."""
        return _open(self.aes_key, _nonce(
            self._iv_int, IV_LENGTH, cid_sequence_number, packet_number),
            datagram, header_len)


def derive_connection_key(secret: bytes) -> bytes:
    """Derive the shared 1-RTT key from a handshake secret."""
    return hashlib.sha256(b"quic-key" + secret).digest()
