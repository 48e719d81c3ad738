"""Named random streams: looked up at the first draw, drawn as before.

``Simulator.rng(name)`` is ``random.Random(f"{seed}:{name}")``, made
once per name. A link's loss draws and a RED queue's mark draws ask for
their stream when they first draw, so a fabric keeps only the streams
its traffic drew from, and every draw sequence is the one it always was.
"""

import functools
import random

from repro.integration.incast import IncastConfig, run_incast
from repro.netsim import Ipv4Header, Packet, RedQueue, Simulator, Topology, units
from repro.netsim.headers import ECN_ECT0
from repro.telemetry.collect import link_rows
from repro.wan.circuits import CircuitManager

SEED = 11


def lossy_pair(loss_rate: float):
    sim = Simulator(seed=SEED)
    topo = Topology(sim)
    link = topo.connect(topo.add_host("a"), topo.add_host("b"), units.gbps(10), 1_000,
                        loss_rate=loss_rate)
    return sim, link


def drops(link, count: int) -> list[bool]:
    """Which of ``count`` packets put on the wire the link loses."""
    lost = []
    for _ in range(count):
        before = link.stats.lost_random
        link.propagate(Packet(payload_size=1000), link.ends[0])
        lost.append(link.stats.lost_random > before)
    return lost


def stream_drops(name: str, loss_rate: float, count: int) -> list[bool]:
    stream = random.Random(f"{SEED}:{name}")
    return [stream.random() < loss_rate for _ in range(count)]


def test_a_lossy_link_draws_its_named_stream():
    _, link = lossy_pair(0.3)
    assert drops(link, 300) == stream_drops("link:a<->b", 0.3, 300)


def test_loss_switched_on_mid_run_draws_the_stream_a_lossy_link_draws():
    sim, link = lossy_pair(0.0)
    assert drops(link, 50) == [False] * 50
    assert "link:a<->b" not in sim._rngs  # a clean link draws nothing
    link.reconfigure(loss_rate=0.3)
    assert drops(link, 300) == drops(lossy_pair(0.3)[1], 300)


def test_parallel_lossy_links_each_drop_what_they_drop_alone():
    """A parallel link is named like its ports (``to_b.2``, ``a<->b.2``),
    so it has its own loss stream and telemetry label, and adding it does
    not move the first link's drops."""
    topo = Topology(Simulator(seed=SEED))
    a, b = topo.add_host("a"), topo.add_host("b")
    links = [topo.connect(a, b, units.gbps(10), 1_000, loss_rate=0.3) for _ in range(2)]
    assert [link.name for link in links] == ["a<->b", "a<->b.2"]
    assert [link.ends[0].name for link in links] == ["to_b", "to_b.2"]
    lost: list[list[bool]] = [[], []]
    for _ in range(300):  # interleaved, as traffic over both would draw
        for link, log in zip(links, lost):
            log += drops(link, 1)
    assert lost[0] == drops(lossy_pair(0.3)[1], 300)
    assert lost[1] == stream_drops("link:a<->b.2", 0.3, 300)
    labels = [{labels["link"] for _kind, _name, labels, _read in link_rows(link)}
              for link in links]
    assert labels == [{"a<->b"}, {"a<->b.2"}]
    circuits = CircuitManager()
    for link in links:
        circuits.manage(link)


def ect(size: int) -> Packet:
    return Packet(ip=Ipv4Header(src="10.0.0.1", dst="10.0.0.2", ecn=ECN_ECT0),
                  payload_size=size)


def red(stream) -> RedQueue:
    return RedQueue(100_000, min_threshold=0.1, max_threshold=0.6, max_drop_probability=0.5,
                    ewma_weight=1.0, stream=stream, ecn=True)


def marks(queue: RedQueue, count: int) -> list[bool]:
    """Which of ``count`` ECT packets the queue CE-marks, holding it
    between 0 and 80 % full so that most enqueues draw."""
    marked = []
    for step in range(count):
        before = queue.ce_marked
        queue.enqueue(ect(4_000 + 97 * step % 3_000))
        marked.append(queue.ce_marked > before)
        while queue.occupancy > 0.8:
            queue.dequeue()
    return marked


def test_red_marks_draw_the_named_stream_from_the_first_draw_on():
    sim = Simulator(seed=SEED)
    queue = red(functools.partial(sim.rng, "red:3"))
    queue.enqueue(ect(5_000))  # 5 % full: below min_threshold, no draw
    assert "red:3" not in sim._rngs
    got = marks(queue, 400)
    assert any(got) and not all(got)
    twin = red(functools.partial(random.Random, f"{SEED}:red:3"))
    twin.enqueue(ect(5_000))
    assert got == marks(twin, 400)


def test_an_incast_cell_keeps_only_the_streams_it_drew_from():
    """Of 49 streams a 16-sender cell's fabric used to seed (one per
    link and per RED port, and the start jitter), it draws from two."""
    for transport in ("mmt", "tcp"):
        fabrics = []
        config = IncastConfig(transport=transport, senders=16, seed=7)
        assert run_incast(config, instrument=fabrics.append).summary.completed == 16
        streams = fabrics[0].topology.sim._rngs
        assert "incast:jitter" in streams
        for name, stream in streams.items():
            assert stream.getstate() != random.Random(f"7:{name}").getstate(), name
