"""Hashing for the Ladon reproduction (:mod:`repro.crypto.hashing`).

The paper signs messages with Ed25519-style signatures and aggregates rank
certificates with BLS (Sec. 3.2 and 5.3).  No run computes a signature:
signature *cost* is modelled by the ``record_crypto`` counters
(:mod:`repro.metrics.resources`), and the wire size of a certificate by its
signer count (:attr:`repro.core.rank.RankCertificate.size_bytes`).  Only the
block and message digests are real hashes.
"""
