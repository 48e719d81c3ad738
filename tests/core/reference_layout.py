"""The MMT extension layout as the paper's table states it: the oracle
the codec tests check ``repro.core.header``'s segment table against.

(feature, extension bytes), in wire order.
"""

from repro.core import Feature

EXTENSION_LAYOUT = (
    (Feature.SEQUENCED, 4),
    (Feature.RETRANSMISSION, 4),
    (Feature.TIMELINESS, 12),
    (Feature.AGE_TRACKING, 17),
    (Feature.PACING, 4),
    (Feature.BACKPRESSURE, 4),
    (Feature.DUPLICATION, 3),
    (Feature.FLOW_ID, 2),
)
