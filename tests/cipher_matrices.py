"""Element-wise encryption of real matrices, for the homomorphism tests.

The ring packs its statistics into slots and never encrypts a matrix
entry by entry; these helpers keep the entry-wise form that the tests
use as an oracle for the homomorphic identities.  A matrix is
encrypted as the vector of its entries, row-major, and decrypts to
that flat vector."""

from __future__ import annotations

import random

import numpy as np

from curie.crypto import (CipherMatrix, PublicKey, SecretKey, decode_fixed,
                          decrypt_residue_matrix, encode_matrix,
                          encrypt_encoded_matrix)


def encrypt_matrix(pk: PublicKey, M, scale: int,
                   rng: random.Random) -> CipherMatrix:
    """Element-wise encode + encrypt.  All entries are validated before
    the first ciphertext is produced, so overflow aborts cleanly."""
    return encrypt_encoded_matrix(pk, encode_matrix(M, scale), rng)


def decrypt_matrix(sk: SecretKey, C: CipherMatrix, scale: int) -> np.ndarray:
    pk = sk.public
    return np.array([decode_fixed(pk.to_signed(v), scale)
                     for v in decrypt_residue_matrix(sk, C)])
