"""Sticky-calendar properties of the farm balancer.

Three layers of the same claim — steering is a *function* of the table
generation:

- **totality + per-epoch consistency** (pure, 200 cases): random
  interleavings of route/drain/crash/recover/load ops always steer to a
  registered backend, and within one epoch every ``(flow, tick)`` key
  maps to exactly one backend (the generator keeps ≥ 1 backend live,
  as the control loop does — with *every* backend dead the degraded
  tiebreak may legitimately wander);
- **replay** (pure, 200 cases): the same seed replays to an identical
  steering log and identical route results;
- **farm replay** (simulated, 5 cases): two identical lossy farm runs
  with a mid-run node crash produce byte-identical steering logs.
"""

from repro.core import make_experiment_id
from repro.dataplane import LoadBalancerProgram
from repro.fleet import FarmConfig, ReceiverFarm
from repro.netsim import Simulator

from .strategies import Gen, cases

EXP_ID = make_experiment_id(17)


def balancer_ops(gen: Gen) -> tuple[dict, list[tuple]]:
    """A random but *operable* op sequence: route calls dominate, and
    liveness ops never take the last live backend down."""
    params = {
        "backends": [f"10.40.0.{i + 2}" for i in range(gen.integer(2, 5))],
        "window": gen.integer(1, 8),
        "flows": gen.integer(1, 3),
    }
    ops: list[tuple] = []
    live = set(params["backends"])
    max_seq = params["window"] * 24
    for _ in range(gen.integer(30, 80)):
        roll = gen.integer(0, 99)
        if roll < 70:
            ops.append((
                "route",
                gen.integer(0, params["flows"] - 1),
                gen.integer(0, max_seq),
                gen.boolean(0.2),
            ))
        elif roll < 80:
            ops.append(("report_load", gen.choice(params["backends"]),
                        gen.integer(0, 100)))
        elif roll < 88 and len(live) > 1:
            victim = gen.choice(sorted(live))
            live.discard(victim)
            ops.append(("mark_down", victim))
        elif roll < 94 and len(live) < len(params["backends"]):
            back = gen.choice(sorted(set(params["backends"]) - live))
            live.add(back)
            ops.append(("mark_up", back))
        else:
            ops.append(("drain", gen.choice(params["backends"])))
    return params, ops


def apply_ops(params: dict, ops: list[tuple]):
    """Run the ops; return (balancer, route results with their epoch)."""
    balancer = LoadBalancerProgram(
        EXP_ID, backends=list(params["backends"]),
        window=params["window"], record_log=True,
    )
    routed = []
    for op, *op_args in ops:
        if op == "route":
            fid, seq, is_retx = op_args
            backend = balancer.route(fid, seq, is_retx=is_retx)
            routed.append((balancer.epoch, fid, seq, backend))
        else:
            getattr(balancer, op)(*op_args)
    return balancer, routed


def test_steering_is_total_and_per_epoch_consistent():
    for index, gen in cases():
        params, ops = balancer_ops(gen)
        balancer, routed = apply_ops(params, ops)
        context = f"case {index} (seed {gen.seed})"
        # Totality: every route decision names a registered backend.
        for _epoch, _fid, _seq, backend in routed:
            assert backend in params["backends"], context
        # Consistency: within one epoch, one backend per (flow, tick) —
        # over every recorded decision, including control-plane remaps.
        owner: dict[tuple[int, int, int], str] = {}
        for record in balancer.steering_log:
            key = (record.epoch, record.flow_id, record.tick)
            assert owner.setdefault(key, record.backend) == record.backend, (
                f"{context}: {key} steered to both "
                f"{owner[key]} and {record.backend}"
            )


def test_same_seed_replays_identical_steering():
    for index, gen in cases():
        params, ops = balancer_ops(gen)
        replay_gen = Gen(gen.seed)
        replay_params, replay_ops = balancer_ops(replay_gen)
        assert (params, ops) == (replay_params, replay_ops)
        balancer_a, routed_a = apply_ops(params, ops)
        balancer_b, routed_b = apply_ops(replay_params, replay_ops)
        context = f"case {index} (seed {gen.seed})"
        assert routed_a == routed_b, context
        assert balancer_a.steering_log == balancer_b.steering_log, context
        assert balancer_a.epoch == balancer_b.epoch, context


def test_farm_replay_is_byte_identical():
    """Whole-farm determinism: same seed, same fault plan → the same
    steering decisions in the same order, crash repair included."""
    for index, gen in cases(count=5):
        seed = gen.integer(0, 2**31)
        nodes = gen.integer(2, 4)
        victim = gen.integer(0, nodes - 1)

        def run_once():
            farm = ReceiverFarm(
                sim=Simulator(seed=seed),
                config=FarmConfig(
                    nodes=nodes, flows=2, window=4,
                    wan_loss_rate=0.02, record_steering=True,
                ),
            )
            for fid in range(2):
                farm.send_stream(30, payload_size=1500,
                                 interval_ns=2_000, flow=fid)
            crash_at = 15 * 2_000 + 1_000  # mid-stream, off-tick
            farm.sim.schedule(crash_at, farm.crash_node, victim)
            report = farm.run()
            return report, list(farm.balancer.steering_log)

        report_a, log_a = run_once()
        report_b, log_b = run_once()
        context = f"case {index} (seed {gen.seed})"
        assert log_a == log_b, context
        assert report_a.delivered == report_b.delivered, context
        assert report_a.retransmissions == report_b.retransmissions, context
