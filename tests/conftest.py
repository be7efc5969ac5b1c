from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager

# BLAS worker threads make timings and the criterion-10 benchmark noisy;
# the pool size is read once, when numpy loads, so pin it first
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# OpenBLAS picks its kernel for the CPU when numpy loads, and kernels
# round sums differently in the last bits; the golden reports pin floats
# to the last bit, so every x86-64 host runs the AVX2 (Haswell) kernel
os.environ["OPENBLAS_CORETYPE"] = "Haswell"

from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

from curie.crypto import HEParams  # noqa: E402
from curie.data import Column, ColumnType, Dataset, Schema  # noqa: E402

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
    return HEParams(key_bits=128, n_max=6000, v_max=6000.0)


@contextmanager
def libcrypto_at(paths: list[str]):
    """``crypto._powmod`` with the loader looking for libcrypto only at
    *paths*; with ``[]`` it runs as on an interpreter without libcrypto.
    The first call after the block loads the real library again."""
    from curie import crypto

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crypto, "_library_paths", lambda: paths)
        crypto._libcrypto.cache_clear()
        try:
            yield
        finally:
            crypto._libcrypto.cache_clear()


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


def warfarin_schema() -> Schema:
    """The eight-input anticoagulant-dosing schema plus the dose target."""
    return Schema((
        Column("age", ColumnType("integer", bounds=(18, 95))),
        Column("height", ColumnType("real", bounds=(140.0, 200.0))),
        Column("weight", ColumnType("real", bounds=(40.0, 140.0))),
        Column("vkorc1", ColumnType("categorical", ("A/A", "A/G", "G/G"))),
        Column("cyp2c9", ColumnType("categorical",
                                    ("*1/*1", "*1/*2", "*1/*3", "*2/*2", "*2/*3", "*3/*3"))),
        Column("race", ColumnType("categorical", ("Asian", "Black", "White"))),
        Column("inducer", ColumnType("boolean")),
        Column("amiodarone", ColumnType("boolean")),
        Column("dose", ColumnType("real", bounds=(0.0, 90.0))),
    ), target="dose")


def dataset_digest(ds: Dataset) -> str:
    """SHA-256 over the provenance, then each column in schema order: its
    name, then its dtype and its cells (raw, or for a categorical column
    each level's text), each length-prefixed.  One digest pins every
    column of one member."""
    h = hashlib.sha256(f"{ds.provenance}".encode())
    for c in ds.schema.columns:
        values = ds.columns[c.name]
        if values.dtype == object:
            cells = b"".join(len(v.encode()).to_bytes(4, "big") + v.encode() for v in values)
        else:
            cells = values.tobytes()
        body = values.dtype.str.encode() + b"\0" + cells
        h.update(len(c.name).to_bytes(4, "big") + c.name.encode())
        h.update(len(body).to_bytes(8, "big") + body)
    return h.hexdigest()
