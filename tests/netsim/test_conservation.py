"""The conservation audit (``tests/conservation.py``) goes red on the
faults it exists for.

One small run exercises every term of the three balances: a lossy link,
a deadline-aware egress queue that pushes out and sheds late packets,
and a retransmission buffer that evicts and is wiped by a failure. It
balances as the code stands. Each mutant below is one hunk of
``src/repro``, applied to a copy of the package; the same run under it,
in a fresh interpreter, must report the breach of its balance.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.retransmit import RetransmitBuffer
from repro.netsim import DeadlineAwareQueue, Link, Node, Packet, Simulator, units

from ..conservation import audit, breaches

ROOT = Path(__file__).resolve().parents[2]

#: name → (file under src/repro, the line as it stands, the mutant line,
#: the breach the run must then report).
MUTANTS = {
    "queue drop left uncounted": (
        "netsim/queues.py", "        self.discarded += 1\n", "",
        "queue a.out: enqueued",
    ),
    "buffer eviction left uncounted": (
        "core/retransmit.py", "            self.stats.evicted += 1\n", "",
        "buffer 10.0.0.1: stored",
    ),
    "link delivery counted twice": (
        "netsim/link.py", "            link.stats.delivered += 1\n",
        "            link.stats.delivered += 2\n",
        "link a<->b: sent",
    ),
}


class Sink(Node):
    def receive(self, packet, port) -> None:
        pass


def run_every_term():
    """Build and run the case inside an audit; return what it built."""
    with audit() as built:
        sim = Simulator(seed=3)
        a, b = Sink(sim, "a"), Sink(sim, "b")
        queue = DeadlineAwareQueue(3_000, deadline_of=lambda p: p.meta["deadline"],
                                   now=lambda: sim.now)
        link = Link(sim, a.add_port("out", queue), b.add_port("in"), units.gbps(1), 1_000,
                    loss_rate=0.2, name="a<->b")
        for i in range(40):  # each more urgent than the last: push-outs, then late drops
            link.ends[0].send(Packet(payload_size=1_000, meta={"deadline": 60_000 - 1_000 * i}))
        sim.run()
        buffer = RetransmitBuffer(2_500, address="10.0.0.1")
        for seq in range(6):
            buffer.store(1, seq, None, payload_size=1_000)
        buffer.fail()
        buffer.restore()
        buffer.store(1, 9, None, payload_size=1_000)
    return link, queue, buffer, built


def test_the_case_exercises_every_term_and_balances():
    link, queue, buffer, built = run_every_term()
    assert link.stats.delivered and link.stats.lost_random
    assert queue.pushouts and queue.late_drops and queue.discarded == queue.pushouts + queue.late_drops
    # A late shed at dequeue is a drop like an enqueue-time one or a push-out.
    assert (queue.dropped, queue.pushouts, queue.late_drops) == (37, 36, 1)
    assert buffer.stats.evicted and buffer.wiped and len(buffer) == 1
    assert set(built) == {link, buffer}
    assert breaches(built) == []


PROBE = """
import repro
from tests.conservation import breaches
from tests.netsim.test_conservation import run_every_term
print(repro.__file__)
print(*breaches(run_every_term()[-1]), sep="\\n")
"""


@pytest.mark.parametrize("name", MUTANTS)
def test_each_committed_mutant_goes_red(name, tmp_path):
    relative, line, mutant, breach = MUTANTS[name]
    package = tmp_path / "src" / "repro"
    shutil.copytree(ROOT / "src" / "repro", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = (package / relative).read_text()
    assert source.count(line) == 1, f"{relative} no longer has exactly one {line.strip()!r}"
    (package / relative).write_text(source.replace(line, mutant))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path / "src"), str(ROOT)])}
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    loaded, *found = done.stdout.splitlines()
    assert Path(loaded).parent == package  # the mutant ran, not the tree
    assert [line for line in found if line.startswith(breach)], done.stdout
