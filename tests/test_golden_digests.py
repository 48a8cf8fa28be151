"""The determinism contract against the committed manifest: no artifact bit moves unless a change means it to."""

import pytest

import golden_digests


def test_no_golden_digest_moved(verify_report, tmp_path):
    manifest = golden_digests.load()
    mismatch = golden_digests.fingerprint_mismatch(manifest["fingerprint"])
    if mismatch:
        pytest.skip(f"manifest was taken on another build, so its digests do not apply: {mismatch}")
    moved = golden_digests.moved(manifest["digests"], golden_digests.digests(verify_report, tmp_path))
    assert not moved, f"{len(moved)} digests moved (rewrite with {golden_digests.REWRITE} if on purpose): {moved}"
