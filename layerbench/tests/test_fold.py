import pytest

from layerbench import fold
from layerbench.fold import HARNESS, OTHER, fold_profile, layer_of, map_source_tree

ENGINE = ("/src/repro/netsim/engine.py", 178, "run")
QUEUE = ("/src/repro/netsim/queues.py", 190, "enqueue")
HEAPPOP = ("~", 0, "<built-in method _heapq.heappop>")
RANDOM = ("/usr/lib/python3/random.py", 500, "random")
GETRANDBITS = ("~", 0, "<method 'getrandbits' of '_random.Random' objects>")
LEN = ("~", 0, "<built-in method builtins.len>")
ORPHAN = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
FILE_LAYERS = {ENGINE[0]: "netsim.engine", QUEUE[0]: "netsim.queues"}


def row(calls, self_s, callers=None):
    """A pstats row: (primitive calls, calls, tottime, cumtime, callers)."""
    return (calls, calls, self_s, self_s, callers or {})


def caller(calls, self_s):
    return (calls, calls, self_s, self_s)


def test_repro_functions_are_charged_to_their_file_layer():
    totals = fold_profile({ENGINE: row(10, 1.0), QUEUE: row(4, 0.5)}, FILE_LAYERS)
    assert totals["netsim.engine"] == {"self_s": 1.0, "calls": 10}
    assert totals["netsim.queues"] == {"self_s": 0.5, "calls": 4}
    assert totals[OTHER] == {"self_s": 0.0, "calls": 0}


def test_builtin_time_is_charged_to_the_calling_layer():
    stats = {
        ENGINE: row(1, 1.0),
        HEAPPOP: row(100, 0.2, {ENGINE: caller(100, 0.2)}),
    }
    totals = fold_profile(stats, FILE_LAYERS)
    assert totals["netsim.engine"]["self_s"] == pytest.approx(1.2)
    assert totals["netsim.engine"]["calls"] == 101
    assert totals[OTHER]["self_s"] == 0.0


def test_builtin_shared_by_two_layers_splits_by_time_and_by_count():
    # len(): 30 calls / 0.3 s from the engine, 10 calls / 0.3 s from the queue.
    stats = {
        ENGINE: row(1, 0.0),
        QUEUE: row(1, 0.0),
        LEN: row(40, 0.6, {ENGINE: caller(30, 0.3), QUEUE: caller(10, 0.3)}),
    }
    totals = fold_profile(stats, FILE_LAYERS)
    assert totals["netsim.engine"]["self_s"] == pytest.approx(0.3)
    assert totals["netsim.queues"]["self_s"] == pytest.approx(0.3)
    assert totals["netsim.engine"]["calls"] == pytest.approx(1 + 30)
    assert totals["netsim.queues"]["calls"] == pytest.approx(1 + 10)


def test_attribution_follows_foreign_frames_down_to_a_repro_caller():
    # queues.enqueue -> random.random (stdlib) -> getrandbits (builtin)
    stats = {
        QUEUE: row(5, 0.1),
        RANDOM: row(5, 0.05, {QUEUE: caller(5, 0.05)}),
        GETRANDBITS: row(5, 0.01, {RANDOM: caller(5, 0.01)}),
    }
    totals = fold_profile(stats, FILE_LAYERS)
    assert totals["netsim.queues"]["self_s"] == pytest.approx(0.16)
    assert totals["netsim.queues"]["calls"] == pytest.approx(15)
    assert totals[OTHER]["self_s"] == 0.0


def test_what_no_repro_function_called_is_other():
    totals = fold_profile({ENGINE: row(1, 1.0), ORPHAN: row(1, 0.25)}, FILE_LAYERS)
    assert totals[OTHER] == {"self_s": 0.25, "calls": 1.0}


def test_recursion_among_foreign_frames_does_not_leak_into_other():
    # engine -> A <-> B (stdlib recursion): everything is the engine's.
    a = ("/usr/lib/python3/copy.py", 128, "deepcopy")
    b = ("/usr/lib/python3/copy.py", 200, "_deepcopy_list")
    stats = {
        ENGINE: row(1, 1.0),
        a: row(8, 0.4, {ENGINE: caller(2, 0.1), b: caller(6, 0.3)}),
        b: row(6, 0.2, {a: caller(6, 0.2)}),
    }
    totals = fold_profile(stats, FILE_LAYERS)
    assert totals["netsim.engine"]["self_s"] == pytest.approx(1.6)
    assert totals["netsim.engine"]["calls"] == pytest.approx(15)
    assert totals[OTHER]["self_s"] == pytest.approx(0.0)


def test_equal_profiles_fold_to_equal_numbers_whatever_the_dict_order():
    stats = {
        ENGINE: row(1, 0.0),
        QUEUE: row(1, 0.0),
        LEN: row(40, 0.7, {ENGINE: caller(30, 0.3), QUEUE: caller(10, 0.4)}),
        HEAPPOP: row(7, 0.1, {ENGINE: caller(7, 0.1)}),
    }
    shuffled = dict(reversed(list(stats.items())))
    shuffled[LEN] = (40, 40, 0.7, 0.7, dict(reversed(list(stats[LEN][4].items()))))
    assert fold_profile(stats, FILE_LAYERS) == fold_profile(shuffled, FILE_LAYERS)


def test_layer_of_names_one_layer_and_harness_takes_the_rest():
    assert layer_of("netsim/engine.py") == "netsim.engine"
    assert layer_of("netsim/loss.py") == "netsim.link"
    assert layer_of("netsim/recorder.py") == "trace"
    assert layer_of("dataplane/loadbalancer.py") == "dataplane.element"
    assert layer_of("baselines/tcp.py") == "baselines"
    assert layer_of("integration/incast.py") == HARNESS
    assert layer_of("cli.py") == HARNESS
    assert layer_of("brand/new.py") == HARNESS


def test_a_file_claimed_by_two_layers_is_an_error(monkeypatch, tmp_path):
    monkeypatch.setitem(fold.LAYER_FILES, "obs", ("obs/*", "netsim/engine.py"))
    with pytest.raises(fold.LayerMapError, match="netsim/engine.py maps to 2 layers"):
        layer_of("netsim/engine.py")
    (tmp_path / "netsim").mkdir()
    (tmp_path / "netsim" / "engine.py").write_text("")
    with pytest.raises(fold.LayerMapError):
        map_source_tree(tmp_path)


def test_map_source_tree_covers_every_file(tmp_path):
    for relative in ("netsim/engine.py", "fleet/farm.py", "soak.py"):
        path = tmp_path / relative
        path.parent.mkdir(exist_ok=True)
        path.write_text("")
    mapped = map_source_tree(tmp_path)
    assert mapped == {
        str(tmp_path / "fleet/farm.py"): "fleet",
        str(tmp_path / "netsim/engine.py"): "netsim.engine",
        str(tmp_path / "soak.py"): HARNESS,
    }
