"""Per-rule behavior of the runtime passes: each determinism/arena rule
fires on its minimal trigger and stays quiet on the idiomatic legal
form, and the shipped runtime comes back clean from the arena pass."""

import textwrap

import pytest

from repro.staticcheck.arenas import check_arenas, check_module_source
from repro.staticcheck.determinism import check_source, subpackage_of


def _codes(diagnostics):
    return {d.code for d in diagnostics}


def _det(source):
    return _codes(check_source("probe.py", textwrap.dedent(source)))


def _arena(source):
    return _codes(check_module_source("probe.py",
                                      textwrap.dedent(source)))


# ----------------------------------------------------------------------
# pass 1: the shipped repo self-hosts clean
# ----------------------------------------------------------------------
def test_shipped_arenas_are_clean():
    assert check_arenas() == []


# ----------------------------------------------------------------------
# pass 2: determinism rules, trigger vs legal form
# ----------------------------------------------------------------------
def test_rc810_wall_clock():
    assert "RC810" in _det("""\
        import time
        def f():
            return time.perf_counter()
        """)


def test_rc810_quiet_on_sim_clock():
    assert "RC810" not in _det("""\
        def f(loop):
            return loop.now
        """)


def test_rc810_from_import():
    assert "RC810" in _det("""\
        from time import monotonic
        def f():
            return monotonic()
        """)


def test_rc811_unseeded_random():
    assert "RC811" in _det("""\
        import random
        def f():
            return random.choice("ab")
        """)


def test_rc811_quiet_on_seeded_instance():
    assert "RC811" not in _det("""\
        import random
        def f(seed):
            rng = random.Random(seed)
            return rng.choice("ab")
        """)


def test_rc812_set_iteration():
    assert "RC812" in _det("""\
        def f(xs):
            for x in set(xs):
                yield x
        """)


def test_rc812_quiet_on_sorted_set():
    assert "RC812" not in _det("""\
        def f(xs):
            for x in sorted(set(xs)):
                yield x
        """)


def test_rc813_environ_read():
    assert "RC813" in _det("""\
        import os
        def f():
            return os.getenv("REPRO_MODE")
        """)


def test_rc813_sanctioned_in_backend():
    found = check_source("network/backend.py", textwrap.dedent("""\
        import os
        POISON = os.environ.get("REPRO_ARENA_POISON")
        """))
    assert "RC813" not in _codes(found)


def test_rc813_seam_is_matched_by_path():
    # Only repro/network/backend.py is the seam, not every file that
    # happens to be called backend.py.
    found = check_source("livenet/backend.py",
                         "import os\nos.environ.get('A')")
    assert "RC813" in _codes(found)


def test_parse_failure_raises():
    # A broken file must not come back as an RC810 finding that a
    # subpackage's wall-clock waiver would silence.
    with pytest.raises(SyntaxError):
        check_source("chaos/x.py", "def f(:")
    with pytest.raises(SyntaxError):
        check_module_source("network/x.py", "def f(:")


def test_rc814_float_eq_sim_time():
    assert "RC814" in _det("""\
        def f(loop):
            return loop.now == 1.5
        """)


def test_rc814_quiet_on_exact_clock_compare():
    # ``when == loop._now`` (no float literal) is the runtime's
    # intentional same-instant fast path, not a hazard.
    assert "RC814" not in _det("""\
        def f(loop, when):
            return when == loop._now
        """)


def test_subpackage_grouping():
    assert subpackage_of("network/backend.py") == "network"
    assert subpackage_of("version.py") == "repro"


# ----------------------------------------------------------------------
# pass 3: arena rules, trigger vs legal form
# ----------------------------------------------------------------------
LEGAL_ACQUIRE = """\
    def transmit(self, target, message, when):
        free = self._free
        if free:
            event = free.pop()
            event.time = when
            event.seq = next(loop._seq)
            event.callback = deliver
            event.args = (message,)
            event._loop = loop
        else:
            event = Event(when, 0, 1, deliver, (message,), loop)
        return event
    """


def test_rc820_incomplete_acquire():
    assert "RC820" in _arena("""\
        def transmit(self, target, message, when):
            free = self._free
            event = free.pop()
            event.time = when
            return event
        """)


def test_rc820_quiet_on_full_rearm():
    assert "RC820" not in _arena(LEGAL_ACQUIRE)


def test_rc821_release_keeps_signal():
    assert "RC821" in _arena("""\
        def process(self, message):
            deliver(message.signal)
            pool = self._loop._env_pool
            if len(pool) < _ENV_POOL_MAX:
                pool.append(message)
        """)


def test_rc822_uncapped_release():
    assert "RC822" in _arena("""\
        def process(self, message):
            message.signal = None
            pool = self._loop._env_pool
            pool.append(message)
        """)


def test_release_clean_when_reset_and_capped():
    assert not _arena("""\
        def process(self, message):
            deliver(message.signal)
            message.signal = None
            pool = self._loop._env_pool
            if len(pool) < _ENV_POOL_MAX:
                pool.append(message)
        """) & {"RC821", "RC822"}


def test_rc823_rearm_without_fresh_seq():
    assert "RC823" in _arena("""\
        def rearm(self, node, loop, when):
            event = node._stim_event
            event.time = when
            event._loop = loop
            return event
        """)


def test_rc823_quiet_with_fresh_seq():
    assert "RC823" not in _arena("""\
        def rearm(self, node, loop, when):
            event = node._stim_event
            event.time = when
            event.seq = next(loop._seq)
            event._loop = loop
            return event
        """)

