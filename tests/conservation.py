"""Conservation balances: every packet a link, queue or retransmission
buffer took in is accounted for.

While ``repro.netsim.engine.audited`` holds a dict, every
:class:`~repro.netsim.link.Link` and
:class:`~repro.core.retransmit.RetransmitBuffer` built enters it.
:func:`breaches` reads their counters once, after the run; nothing is
hooked into the forward path. The balances hold between any two
events, so a run stopped at a horizon is checked as one that drained:

- per link: packets its two ports sent = ``delivered`` + every ``lost_*``
  counter + packets still on a transmitter (a busy port holds one; a
  packet in propagation is already counted as delivered);
- per egress queue: ``enqueued`` = dequeued (its port's ``tx_packets``:
  the port is the queue's one consumer) + resident + ``discarded``;
- per retransmission buffer: ``stored`` = ``evicted`` + entries restart
  wipes dropped (``wiped``) + resident.

The suite's autouse fixture (``tests/conftest.py``) audits every test.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.core.retransmit import RetransmitBuffer
from repro.netsim import engine
from repro.netsim.link import Link


def link_breaches(link: Link) -> list[str]:
    found = []
    stats = link.stats
    sent = sum(port.stats.tx_packets for port in link.ends)
    on_wire = sum(port._busy for port in link.ends)
    accounted = (stats.delivered + stats.lost_random + stats.lost_corruption
                 + stats.lost_down + stats.lost_model + on_wire)
    if sent != accounted:
        found.append(f"link {link.name}: sent {sent} != delivered {stats.delivered} + lost "
                     f"{accounted - stats.delivered - on_wire} + on the wire {on_wire}")
    for port in link.ends:
        queue = port.queue
        left = port.stats.tx_packets + len(queue) + queue.discarded
        if queue.enqueued != left:
            found.append(f"queue {port.node.name}.{port.name}: enqueued {queue.enqueued} != "
                         f"dequeued {port.stats.tx_packets} + resident {len(queue)} + "
                         f"discarded {queue.discarded}")
    return found


def buffer_breaches(buffer: RetransmitBuffer) -> list[str]:
    stats = buffer.stats
    if stats.stored == stats.evicted + buffer.wiped + len(buffer):
        return []
    return [f"buffer {buffer.address}: stored {stats.stored} != evicted {stats.evicted} + "
            f"wiped {buffer.wiped} + resident {len(buffer)}"]


def breaches(parts) -> list[str]:
    """Every balance that does not hold among ``parts`` (links, buffers)."""
    found = []
    for part in parts:
        found += link_breaches(part) if isinstance(part, Link) else buffer_breaches(part)
    return found


@contextmanager
def audit():
    """Collect the links and buffers built inside the block; yields the
    dict they enter, to be handed to :func:`breaches` after the run."""
    outer, engine.audited = engine.audited, {}
    try:
        yield engine.audited
    finally:
        engine.audited = outer
