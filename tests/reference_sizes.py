"""Reference wire sizes of the protocol messages.

These are the ``_wire_size`` formulas of :mod:`repro.consensus.messages`
as they stood when every message computed its size in a shared
``__post_init__``, written out with literal byte counts: 24-byte header,
64-byte signature, 32-byte digest, 500 bytes per transaction.  Today a
fixed-size class carries its size as a class constant and a variable-size
class stores it once at construction; ``tests/test_message_sizes.py`` pins
both against this table, so a size moves only on purpose.
"""

HEADER, SIGNATURE, DIGEST, TX_PAYLOAD = 24, 64, 32, 500


def _certificate(certificate):
    return certificate.size_bytes if certificate else 0


def _pre_prepare(m):
    base = HEADER + SIGNATURE + DIGEST + m.tx_count * TX_PAYLOAD
    if m.aggregated_rank_proof_bytes:
        rank_bytes = m.aggregated_rank_proof_bytes
    else:
        rank_bytes = sum(report.size_bytes for report in m.rank_reports)
    return base + rank_bytes + _certificate(m.rank_certificate)


def _hotstuff_proposal(m):
    parent_qc = 96
    return (
        HEADER + SIGNATURE + 2 * DIGEST + m.tx_count * TX_PAYLOAD + parent_qc
        + _certificate(m.rank_certificate)
    )


#: message class name -> its wire size
REFERENCE_SIZES = {
    "InstanceMessage": lambda m: HEADER + SIGNATURE,
    "PrePrepare": _pre_prepare,
    "Prepare": lambda m: HEADER + SIGNATURE + DIGEST,
    "Commit": lambda m: HEADER + SIGNATURE + DIGEST,
    "RankMessage": lambda m: HEADER + SIGNATURE + 8 + _certificate(m.certificate),
    "ViewChange": lambda m: HEADER + SIGNATURE + 16,
    "NewView": lambda m: HEADER + SIGNATURE + 16 + m.view_change_count * 32,
    "CheckpointMessage": lambda m: HEADER + SIGNATURE + DIGEST,
    "HotStuffProposal": _hotstuff_proposal,
    "HotStuffVote": lambda m: HEADER + SIGNATURE + DIGEST + _certificate(m.rank_certificate),
}


def reference_size(message) -> int:
    return REFERENCE_SIZES[type(message).__name__](message)
