"""Tests for AES-128-GCM packet protection, the multipath nonce, and
packet headers."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quic import crypto
from repro.quic.crypto import (IV_LENGTH, MAX_PLAINTEXT, PacketProtection,
                               TAG_LENGTH, derive_connection_key)
from repro.quic.errors import ProtocolViolation
from repro.quic.packets import (PN_TRUNC_MOD, PacketHeader, PacketType,
                                decode_header, encode_header, peek_dcid,
                                reconstruct_pn)


def nonce_for(iv, cid_sequence_number, packet_number):
    """The nonce ``seal`` and ``open`` build for ``iv``."""
    return crypto._nonce(int.from_bytes(iv, "big"), len(iv),
                         cid_sequence_number, packet_number)


class TestNonce:
    def test_nonce_layout_matches_spec(self):
        """Sec. 6: 32-bit CID seq, two zero bits, 62-bit PN, XOR IV."""
        iv = b"\x00" * IV_LENGTH
        nonce = nonce_for(iv, cid_sequence_number=1, packet_number=2)
        # With a zero IV the nonce IS the path-and-packet-number.
        value = int.from_bytes(nonce, "big")
        assert value >> 64 == 1          # CID sequence number in top 32 bits
        assert value & ((1 << 62) - 1) == 2
        assert (value >> 62) & 0x3 == 0  # the two zero bits

    def test_same_pn_different_path_distinct_nonce(self):
        """The property the construction exists for."""
        iv = bytes(range(IV_LENGTH))
        n0 = nonce_for(iv, cid_sequence_number=0, packet_number=7)
        n1 = nonce_for(iv, cid_sequence_number=1, packet_number=7)
        assert n0 != n1

    def test_nonce_xors_iv(self):
        iv = bytes([0xFF] * IV_LENGTH)
        nonce = nonce_for(iv, 0, 0)
        assert nonce == iv  # zero path-and-packet-number XOR IV = IV

    def test_rejects_out_of_range(self):
        iv = bytes(IV_LENGTH)
        with pytest.raises(ValueError):
            nonce_for(iv, 1 << 32, 0)
        with pytest.raises(ValueError):
            nonce_for(iv, 0, 1 << 62)

    @given(st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 62) - 1),
           st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 62) - 1))
    @settings(max_examples=200)
    def test_nonce_injective_property(self, c1, p1, c2, p2):
        iv = bytes(range(IV_LENGTH))
        if (c1, p1) != (c2, p2):
            assert nonce_for(iv, c1, p1) != nonce_for(iv, c2, p2)


class TestPacketProtection:
    def test_seal_open_roundtrip(self):
        prot = PacketProtection(key=b"secret")
        sealed = prot.seal(b"payload", b"aad", 0, 1)
        assert prot.open(sealed, 3, 0, 1) == b"payload"

    def test_tag_adds_overhead(self):
        prot = PacketProtection(key=b"secret")
        sealed = prot.seal(b"xyz", b"", 0, 0)
        assert len(sealed) == 3 + TAG_LENGTH

    def test_tamper_detected(self):
        prot = PacketProtection(key=b"secret")
        sealed = bytearray(prot.seal(b"payload", b"aad", 0, 1))
        sealed[3] ^= 0xFF
        with pytest.raises(ValueError):
            prot.open(bytes(sealed), 3, 0, 1)

    def test_wrong_aad_detected(self):
        prot = PacketProtection(key=b"secret")
        sealed = prot.seal(b"payload", b"aad", 0, 1)
        with pytest.raises(ValueError):
            prot.open(b"oth" + sealed[3:], 3, 0, 1)

    def test_wrong_path_fails(self):
        """A packet sealed for path 0 cannot be opened as path 1."""
        prot = PacketProtection(key=b"secret")
        sealed = prot.seal(b"payload", b"aad", 0, 1)
        with pytest.raises(ValueError):
            prot.open(sealed, 3, 1, 1)

    def test_wrong_key_fails(self):
        a = PacketProtection(key=b"ka")
        b = PacketProtection(key=b"kb")
        sealed = a.seal(b"payload", b"", 0, 0)
        with pytest.raises(ValueError):
            b.open(sealed, 0, 0, 0)

    def test_too_short_sealed(self):
        prot = PacketProtection(key=b"k")
        with pytest.raises(ValueError):
            prot.open(b"tiny", 0, 0, 0)

    def test_key_derivation_deterministic(self):
        assert derive_connection_key(b"s") == derive_connection_key(b"s")
        assert derive_connection_key(b"s") != derive_connection_key(b"t")

    @given(st.binary(min_size=0, max_size=2000), st.binary(max_size=64),
           st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=100)
    def test_roundtrip_property(self, payload, aad, path, pn):
        prot = PacketProtection(key=b"property-key")
        assert prot.open(prot.seal(payload, aad, path, pn),
                         len(aad), path, pn) == payload

    @given(st.binary(max_size=1500), st.binary(max_size=32),
           st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 62) - 1))
    @settings(max_examples=50)
    def test_matches_flat_construction_property(self, payload, aad, cid, pn):
        """The shared contexts and buffer equal a one-shot AES-GCM
        from an independent implementation."""
        aead = pytest.importorskip(
            "cryptography.hazmat.primitives.ciphers.aead")
        prot = PacketProtection(key=b"property-key")
        nonce = nonce_for(prot.iv, cid, pn)
        assert prot.seal(payload, aad, cid, pn) == \
            aad + aead.AESGCM(prot.aes_key).encrypt(nonce, payload, aad)

    def test_roundtrip_every_length_to_1500(self):
        prot = PacketProtection(key=b"length-key")
        pattern = bytes(range(256)) * 6
        for length in range(1501):
            payload = pattern[:length]
            sealed = prot.seal(payload, b"aad", 2, length)
            assert len(sealed) == 3 + length + TAG_LENGTH
            assert prot.open(sealed, 3, 2, length) == payload

    @given(st.binary(max_size=1500), st.binary(max_size=32),
           st.sampled_from([bytes, bytearray, memoryview]),
           st.sampled_from([bytes, bytearray, memoryview]))
    @settings(max_examples=100)
    def test_bytes_like_inputs_property(self, payload, aad, wrap_in,
                                        wrap_out):
        prot = PacketProtection(key=b"property-key")
        sealed = prot.seal(wrap_in(payload), wrap_in(aad), 1, 9)
        assert sealed == prot.seal(payload, aad, 1, 9)
        assert len(sealed) == len(aad) + len(payload) + TAG_LENGTH
        assert prot.open(wrap_out(sealed), len(aad), 1, 9) == payload

    @given(st.binary(max_size=300), st.binary(min_size=1, max_size=32),
           st.data())
    @settings(max_examples=200)
    def test_any_flipped_bit_rejected_property(self, payload, aad, data):
        prot = PacketProtection(key=b"property-key")
        sealed = prot.seal(payload, aad, 1, 9)
        bit = data.draw(st.integers(0, 8 * len(sealed) - 1))
        tampered = bytearray(sealed)
        tampered[bit >> 3] ^= 1 << (bit & 7)
        with pytest.raises(ValueError):
            prot.open(bytes(tampered), len(aad), 1, 9)

    @given(st.binary(min_size=1, max_size=1500),
           st.integers(0, (1 << 62) - 1),
           st.integers(0, (1 << 32) - 1), st.integers(0, (1 << 32) - 1))
    @settings(max_examples=100)
    def test_two_paths_same_pn_distinct_property(self, payload, pn, c1, c2):
        """Same key + packet number on two CID sequence numbers."""
        if c1 == c2:
            c2 = (c1 + 1) % (1 << 32)
        prot = PacketProtection(key=b"property-key")
        assert nonce_for(prot.iv, c1, pn) != nonce_for(prot.iv, c2, pn)
        s1 = prot.seal(payload, b"aad", c1, pn)
        s2 = prot.seal(payload, b"aad", c2, pn)
        # 8+ payload bytes cannot collide by chance; shorter ones are
        # still told apart by the 16-byte tag
        if len(payload) >= 8:
            assert s1[:-TAG_LENGTH] != s2[:-TAG_LENGTH]
        assert s1[-TAG_LENGTH:] != s2[-TAG_LENGTH:]
        with pytest.raises(ValueError):
            prot.open(s1, 3, c2, pn)

    def test_seal_open_call_budget(self):
        """Deterministic cost gate, immune to wall-clock noise.

        One seal + one open of a 1,200-byte payload makes at most 28
        Python + C calls that a profiler sees (26 measured, 10 of them
        the libcrypto calls): no loop over blocks or bytes.
        ``TestForeignCalls`` checks which libcrypto calls those are.
        """
        prot = PacketProtection(key=b"budget-key")
        payload, aad = bytes(1200), b"\x40" + bytes(12)
        header_len = len(aad)
        calls = 0

        def count(_frame, event, _arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            opened = prot.open(prot.seal(payload, aad, 1, 7), header_len,
                               1, 7)
        finally:
            sys.setprofile(previous)
        assert opened == payload
        # the closing sys.setprofile is itself counted once
        assert calls - 1 <= 28, calls


class TestSealedDatagram:
    """``seal`` returns ``header || ciphertext || tag`` and ``open``
    authenticates ``datagram[:header_len]``."""

    SHORT = encode_header(PacketHeader(PacketType.ONE_RTT, dcid=b"\x01" * 8,
                                       truncated_pn=5))
    LONG = encode_header(PacketHeader(PacketType.HANDSHAKE, dcid=b"\x01" * 8,
                                      scid=b"\x02" * 8, truncated_pn=0))

    def test_interleaved_keys_share_the_cipher_contexts(self):
        """Two keys' seals and opens, a handshake datagram among them,
        alternate on the one seal and one open context: each call
        re-keys, so every datagram round-trips under its own key and
        fails under the other."""
        a = PacketProtection(key=b"client-key")
        b = PacketProtection(key=b"server-key")
        cases = [(a, self.SHORT, 1), (b, self.SHORT, 1), (a, self.LONG, 0),
                 (b, self.LONG, 0), (b, self.SHORT, 2), (a, self.SHORT, 1)]
        pending = []
        for pn, (prot, header, cid) in enumerate(cases):
            payload = bytes([pn]) * (40 + 300 * pn)
            datagram = prot.seal(payload, header, cid, pn)
            assert datagram.startswith(header)
            pending.append((prot, datagram, len(header), cid, pn, payload))
            if pn % 2:
                for sealer, sealed, *open_args, plain in pending:
                    other = b if sealer is a else a
                    with pytest.raises(ValueError):
                        other.open(sealed, *open_args)
                    assert sealer.open(sealed, *open_args) == plain
                pending.clear()
        assert not pending

    @pytest.mark.parametrize("where", ["header", "ciphertext", "tag"])
    def test_one_flipped_bit_is_rejected(self, where):
        prot = PacketProtection(key=b"k")
        payload = bytes(range(100))
        datagram = bytearray(prot.seal(payload, self.SHORT, 1, 9))
        start = {"header": 0, "ciphertext": len(self.SHORT),
                 "tag": len(datagram) - TAG_LENGTH}[where]
        datagram[start + 2] ^= 0x10
        with pytest.raises(ValueError):
            prot.open(bytes(datagram), len(self.SHORT), 1, 9)
        datagram[start + 2] ^= 0x10
        assert prot.open(bytes(datagram), len(self.SHORT), 1, 9) == payload

    def test_shorter_than_header_and_tag_is_rejected(self, foreign_calls):
        prot = PacketProtection(key=b"k")
        datagram = prot.seal(b"", self.SHORT, 1, 9)
        assert len(datagram) == len(self.SHORT) + TAG_LENGTH
        assert prot.open(datagram, len(self.SHORT), 1, 9) == b""
        foreign_calls.clear()
        for cut in range(len(datagram)):
            with pytest.raises(ValueError):
                prot.open(datagram[:cut], len(self.SHORT), 1, 9)
        with pytest.raises(ValueError):
            prot.open(datagram, -1, 1, 9)
        assert foreign_calls == []


FOREIGN = {"_ENCRYPT_INIT", "_ENCRYPT_UPDATE", "_ENCRYPT_FINAL",
           "_DECRYPT_INIT", "_DECRYPT_UPDATE", "_DECRYPT_FINAL",
           "_CIPHER_CTRL"}


@pytest.fixture()
def foreign_calls(monkeypatch):
    """Wraps ``crypto._call``, through which every libcrypto call goes;
    the returned list receives the name of each function called."""
    # a function pointer held by the module could be called around it
    assert not [name for name, value in vars(crypto).items()
                if type(value).__name__ == "_FuncPtr"]
    names = {getattr(crypto, name): name for name in FOREIGN}
    assert len(names) == len(FOREIGN)
    made = []
    call = crypto._call

    def counted(address, args):
        made.append(names[address])
        return call(address, args)

    monkeypatch.setattr(crypto, "_call", counted)
    return made


class TestForeignCalls:
    """libcrypto calls per packet, and what the buffer lets through."""

    @pytest.mark.parametrize("length", [0, 1, 100, 1200, MAX_PLAINTEXT])
    def test_five_calls_per_seal_and_per_open(self, foreign_calls, length):
        prot = PacketProtection(key=b"budget-key")
        payload = bytes(range(256)) * (length // 256) + bytes(length % 256)
        sealed = prot.seal(payload, b"aad", 1, 7)
        assert foreign_calls == ["_ENCRYPT_INIT", "_ENCRYPT_UPDATE",
                                 "_ENCRYPT_UPDATE", "_ENCRYPT_FINAL",
                                 "_CIPHER_CTRL"]
        foreign_calls.clear()
        assert prot.open(memoryview(sealed), 3, 1, 7) == payload
        assert foreign_calls == ["_DECRYPT_INIT", "_DECRYPT_UPDATE",
                                 "_DECRYPT_UPDATE", "_CIPHER_CTRL",
                                 "_DECRYPT_FINAL"]

    def test_oversized_payload_makes_no_foreign_call(self, foreign_calls):
        prot = PacketProtection(key=b"k")
        with pytest.raises(ValueError):
            prot.seal(bytes(MAX_PLAINTEXT + 1), b"", 0, 0)
        with pytest.raises(ValueError):
            prot.open(bytes(MAX_PLAINTEXT + 1 + TAG_LENGTH), 0, 0, 0)
        with pytest.raises(ValueError):
            prot.open(bytes(TAG_LENGTH - 1), 0, 0, 0)
        assert foreign_calls == []

    @given(st.binary(max_size=2 * TAG_LENGTH + 64), st.binary(max_size=16))
    @settings(max_examples=200)
    def test_random_sealed_input_raises_value_error_property(self, sealed,
                                                             aad):
        prot = PacketProtection(key=b"property-key")
        with pytest.raises(ValueError):
            prot.open(aad + sealed, len(aad), 1, 9)

    @given(st.binary(max_size=300), st.data())
    @settings(max_examples=200)
    def test_truncated_sealed_input_raises_value_error_property(
            self, payload, data):
        prot = PacketProtection(key=b"property-key")
        sealed = prot.seal(payload, b"aad", 1, 9)
        cut = data.draw(st.integers(0, len(sealed) - 1))
        with pytest.raises(ValueError):
            prot.open(memoryview(sealed)[:cut], 3, 1, 9)
        assert prot.open(sealed, 3, 1, 9) == payload


class TestPacketHeaders:
    def test_short_header_roundtrip(self):
        header = PacketHeader(PacketType.ONE_RTT, dcid=b"\x01" * 8,
                              truncated_pn=12345)
        data = encode_header(header)
        decoded, offset = decode_header(data + b"payload")
        assert decoded == header
        assert offset == len(data)

    def test_long_header_roundtrip(self):
        header = PacketHeader(PacketType.HANDSHAKE, dcid=b"\x01" * 8,
                              scid=b"\x02" * 8, truncated_pn=7)
        data = encode_header(header)
        decoded, offset = decode_header(data)
        assert decoded == header
        assert offset == len(data)

    def test_long_header_requires_scid(self):
        header = PacketHeader(PacketType.HANDSHAKE, dcid=b"\x01" * 8)
        with pytest.raises(ProtocolViolation):
            encode_header(header)

    def test_empty_packet_rejected(self):
        with pytest.raises(ProtocolViolation):
            decode_header(b"")

    def test_truncated_short_header_rejected(self):
        with pytest.raises(ProtocolViolation):
            decode_header(b"\x40\x01\x02")

    def test_peek_dcid_agrees_with_decode_header(self):
        """``peek_dcid`` is what routers use instead of the full parse:
        same DCID, ``None`` for long headers, and it rejects exactly the
        prefixes ``decode_header`` rejects."""
        short = encode_header(PacketHeader(
            PacketType.ONE_RTT, dcid=b"\x05" * 8, truncated_pn=9)) + b"body"
        long = encode_header(PacketHeader(
            PacketType.HANDSHAKE, dcid=b"\x05" * 8, scid=b"\x06" * 8,
            truncated_pn=9)) + b"body"
        assert peek_dcid(short) == b"\x05" * 8
        assert peek_dcid(memoryview(short)) == b"\x05" * 8
        assert peek_dcid(long) is None
        for cut in range(len(short)):
            prefix = short[:cut]
            try:
                expected = decode_header(prefix)[0].dcid
            except ProtocolViolation:
                with pytest.raises(ProtocolViolation):
                    peek_dcid(prefix)
            else:
                assert peek_dcid(prefix) == expected

    def test_pn_truncation_wraps(self):
        header = PacketHeader(PacketType.ONE_RTT, dcid=b"\x01" * 8,
                              truncated_pn=PN_TRUNC_MOD + 5)
        decoded, _ = decode_header(encode_header(header) + b"x")
        assert decoded.truncated_pn == 5


class TestPnReconstruction:
    def test_sequential(self):
        assert reconstruct_pn(5, 4) == 5

    def test_gap(self):
        assert reconstruct_pn(100, 4) == 100

    def test_reorder_behind(self):
        assert reconstruct_pn(3, 10) == 3

    def test_wraparound_forward(self):
        largest = PN_TRUNC_MOD - 2
        assert reconstruct_pn(1, largest) == PN_TRUNC_MOD + 1

    def test_no_packets_seen(self):
        assert reconstruct_pn(0, -1) == 0

    @given(st.integers(0, (1 << 40)))
    @settings(max_examples=200)
    def test_reconstruct_next_property(self, largest):
        """The successor of the largest seen always reconstructs."""
        pn = largest + 1
        assert reconstruct_pn(pn % PN_TRUNC_MOD, largest) == pn

    @given(st.integers(0, 1 << 40), st.integers(-1000, 1000))
    @settings(max_examples=200)
    def test_reconstruct_window_property(self, largest, delta):
        """Any PN within +-1000 of the expected value reconstructs."""
        pn = largest + 1 + delta
        if pn < 0:
            return
        assert reconstruct_pn(pn % PN_TRUNC_MOD, largest) == pn
