"""Wire format: codecs round-trip, signatures bind, parsing is tolerant."""

import dataclasses

import pytest

from repro.crypto import RSAKeyPair
from repro.errors import WireError
from repro.reporting import (
    DetectionReport,
    decode_report,
    encode_report,
    format_report_text,
    parse_report_text,
    report_from_json,
    report_from_text,
    report_to_json,
    sign_report,
)
from repro.reporting.wire import canonical_bytes

KEY_A = "ab" * 20
KEY_B = "cd" * 20


@pytest.fixture(scope="module")
def attest_key():
    return RSAKeyPair.generate(seed=31)


def _report(**overrides):
    base = dict(
        app_name="Game",
        bomb_id="b007",
        device_id="dev-000000042",
        observed_key_hex=KEY_A,
        timestamp=123.5,
        nonce=0xDEADBEEFCAFE,
    )
    base.update(overrides)
    return DetectionReport(**base)


class TestBinaryCodec:
    def test_round_trip(self, attest_key):
        signed = sign_report(_report(), attest_key)
        decoded = decode_report(encode_report(signed))
        assert decoded.report == signed.report
        assert decoded.signature == signed.signature
        assert decoded.verify()

    def test_unicode_fields_survive(self, attest_key):
        signed = sign_report(_report(app_name="Gámé 中"), attest_key)
        assert decode_report(encode_report(signed)).report.app_name == "Gámé 中"

    def test_garbage_rejected(self):
        for blob in (b"", b"nope", b"DRPT", b"DRPT\x00\x00\x00\xff", b"DRPTxxxx"):
            with pytest.raises(WireError):
                decode_report(blob)

    def test_truncated_frame_rejected(self, attest_key):
        frame = encode_report(sign_report(_report(), attest_key))
        for cut in (5, len(frame) // 2, len(frame) - 1):
            with pytest.raises(WireError):
                decode_report(frame[:cut])

    def test_unknown_version_rejected(self, attest_key):
        signed = sign_report(_report(), attest_key)
        frame = bytearray(encode_report(signed))
        frame[8] = 99  # version byte is first in the body
        with pytest.raises(WireError):
            decode_report(bytes(frame))


class TestJsonCodec:
    def test_round_trip(self, attest_key):
        signed = sign_report(_report(), attest_key)
        decoded = report_from_json(report_to_json(signed))
        assert decoded.report == signed.report
        assert decoded.verify()

    def test_bad_json_rejected(self):
        for line in ("", "{", "[1, 2]", '{"app": "Game"}'):
            with pytest.raises(WireError):
                report_from_json(line)


class TestSignature:
    def test_signature_binds_every_field(self, attest_key):
        signed = sign_report(_report(), attest_key)
        assert signed.verify()
        for change in (
            {"observed_key_hex": KEY_B},
            {"device_id": "dev-imposter"},
            {"nonce": 1},
            {"timestamp": 999.0},
        ):
            tampered = dataclasses.replace(
                signed, report=dataclasses.replace(signed.report, **change)
            )
            assert not tampered.verify()

    def test_flipped_signature_rejected(self, attest_key):
        signed = sign_report(_report(), attest_key)
        forged = dataclasses.replace(signed, signature=signed.signature ^ 1)
        assert not forged.verify()

    def test_wrong_key_rejected(self, attest_key):
        signed = sign_report(_report(), attest_key)
        other = RSAKeyPair.generate(seed=32)
        swapped = dataclasses.replace(signed, attestation_key=other.public)
        assert not swapped.verify()

    def test_canonical_bytes_deterministic(self):
        assert canonical_bytes(_report()) == canonical_bytes(_report())
        assert canonical_bytes(_report()) != canonical_bytes(_report(nonce=7))


class TestTextChannel:
    def test_structured_round_trip(self):
        text = format_report_text("Game", "b012") + KEY_A
        fields = parse_report_text(text)
        assert fields["app"] == "Game"
        assert fields["bomb"] == "b012"
        assert fields["key"] == KEY_A

    def test_legacy_colon_format(self):
        # Only the structured ``repackaged:v1:`` channel is parsed; the
        # pre-v1 colon format is a log line.
        text = f"repackaged:Game:b001:key={KEY_A}"
        assert parse_report_text(text) == {}
        assert report_from_text(text, device_id="d") is None

    def test_free_text_with_decoy_key_equals(self):
        # Free text names no key, even when a fingerprint follows key=.
        text = f"warning: cache key=deadbeef is stale; cert key={KEY_B} observed"
        assert parse_report_text(text) == {}

    def test_free_text_without_fingerprint_yields_no_key(self):
        assert "key" not in parse_report_text("retry with key=deadbeef")
        assert report_from_text("retry with key=deadbeef", device_id="d") is None

    def test_report_from_text_builds_wire_report(self):
        text = format_report_text("Game", "b001") + KEY_A.upper()
        report = report_from_text(text, device_id="dev-1", timestamp=9.0, nonce=5)
        assert report is not None
        assert report.observed_key_hex == KEY_A  # normalized to lowercase
        assert report.device_id == "dev-1"
        assert report.nonce == 5
