from __future__ import annotations

from pathlib import Path

import pytest

from curie.crypto import HEParams

REPO = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO / "corpus"
CONSORTIA_DIR = REPO / "consortia"


@pytest.fixture(scope="session")
def corpus_files() -> list[Path]:
    files = sorted(CORPUS_DIR.glob("*.cpl"))
    assert files, "policy corpus is missing"
    return files


@pytest.fixture(scope="session")
def small_he_params() -> HEParams:
    # tiny keys keep the homomorphic identities while making tests fast
    return HEParams(key_bits=128, n_max=6000, m_max=48, v_max=6000.0)


def config_path(name: str) -> Path:
    return CONSORTIA_DIR / name / "config.json"


def count_crypto_calls(monkeypatch, counts: dict[str, int]) -> None:
    """Count encryptions by either key (members encrypt with the public
    key, the initiator its masks with the secret key) in
    ``counts["encrypt"]``, and decryptions in ``counts["decrypt"]``."""
    from curie import crypto

    def counted(kind, method):
        def call(self, *args):
            counts[kind] += 1
            return method(self, *args)
        return call

    for key in (crypto.PublicKey, crypto.SecretKey):
        monkeypatch.setattr(key, "encrypt_raw", counted("encrypt", key.encrypt_raw))
    monkeypatch.setattr(crypto.SecretKey, "decrypt_raw",
                        counted("decrypt", crypto.SecretKey.decrypt_raw))
