"""Classical message vocabulary and size model.

The paper repeatedly stresses that only *a few bits* of classical
information are needed per quantum operation (2 bits per swap or
teleportation correction), while the balancing protocol's count
dissemination can be much heavier (up to ``|N| choose 2`` counts).
:func:`message_size_bits` gives every message type an explicit size in bits
so experiments can compare control-plane load across protocols
quantitatively.
"""

from __future__ import annotations

import enum

#: Bits used to encode one node identifier in control messages.
NODE_ID_BITS = 16
#: Bits used to encode one pair count in a count-vector message.
COUNT_BITS = 16


class MessageType(enum.Enum):
    """Kinds of classical control messages the simulations account for."""

    SWAP_CORRECTION = "swap_correction"
    TELEPORT_CORRECTION = "teleport_correction"
    COUNT_VECTOR = "count_vector"
    PATH_RESERVATION = "path_reservation"
    PATH_RELEASE = "path_release"
    HERALD = "herald"
    FAILURE_NOTICE = "failure_notice"


def message_size_bits(message_type: MessageType, entries: int = 0, path_hops: int = 0) -> int:
    """Size (in bits) of a message of the given type.

    ``entries`` is the number of ``(partner, count)`` records in a count
    vector; ``path_hops`` the number of hops in a reservation message.
    """
    if entries < 0 or path_hops < 0:
        raise ValueError("entries and path_hops must be non-negative")
    if message_type in (MessageType.SWAP_CORRECTION, MessageType.TELEPORT_CORRECTION):
        return 2
    if message_type is MessageType.HERALD:
        return 1
    if message_type is MessageType.COUNT_VECTOR:
        return max(entries, 1) * (NODE_ID_BITS + COUNT_BITS)
    if message_type is MessageType.FAILURE_NOTICE:
        # One bit for node-vs-link plus up to two node identifiers.
        return 1 + 2 * NODE_ID_BITS
    if message_type in (MessageType.PATH_RESERVATION, MessageType.PATH_RELEASE):
        return max(path_hops, 1) * NODE_ID_BITS
    raise ValueError(f"unhandled message type {message_type}")  # pragma: no cover
