"""Unit tests for arenas, memory regions and the TPT."""

import pytest

from repro.ib.memory import (
    PAGE_SIZE,
    AccessFlags,
    MemoryArena,
    ProtectionError,
    RegistrationCosts,
    TranslationProtectionTable,
    pages_spanned,
)
from repro.osmodel import CPU, CPUConfig
from repro.sim import DeterministicRNG, Simulator


def make_tpt(sim=None, costs=None):
    sim = sim or Simulator()
    cpu = CPU(sim, CPUConfig(cores=2))
    tpt = TranslationProtectionTable(
        sim, cpu, costs or RegistrationCosts(), DeterministicRNG(7, "t")
    )
    return sim, cpu, tpt


# ---------------------------------------------------------------- arena
def test_arena_alloc_and_resolve():
    arena = MemoryArena()
    buf = arena.alloc(10000)
    found, off = arena.resolve(buf.addr + 100, 500)
    assert found is buf and off == 100


def test_arena_resolve_miss():
    arena = MemoryArena()
    buf = arena.alloc(4096)
    with pytest.raises(ProtectionError):
        arena.resolve(buf.addr + buf.length + PAGE_SIZE, 1)


def test_arena_resolve_overrun_rejected():
    arena = MemoryArena()
    buf = arena.alloc(4096)
    with pytest.raises(ProtectionError):
        arena.resolve(buf.addr + 4000, 200)


def test_arena_allocations_page_aligned_and_guarded():
    arena = MemoryArena()
    a = arena.alloc(100)
    b = arena.alloc(100)
    assert a.addr % PAGE_SIZE == 0 and b.addr % PAGE_SIZE == 0
    assert b.addr - a.addr >= 2 * PAGE_SIZE  # guard page between


def test_arena_free():
    arena = MemoryArena()
    buf = arena.alloc(4096)
    arena.free(buf)
    with pytest.raises(ProtectionError):
        arena.resolve(buf.addr, 1)
    with pytest.raises(ValueError):
        arena.free(buf)


@pytest.mark.parametrize("victim", [0, 2, 4], ids=["first", "middle", "last"])
def test_arena_free_keeps_neighbours(victim):
    arena = MemoryArena()
    bufs = [arena.alloc(3 * PAGE_SIZE) for _ in range(5)]
    gone = bufs[victim]
    arena.free(gone)
    for addr in (gone.addr, gone.addr + PAGE_SIZE, gone.addr + gone.length - 1):
        with pytest.raises(ProtectionError):
            arena.resolve(addr, 1)
    for buf in bufs:
        if buf is not gone:
            assert arena.resolve(buf.addr, buf.length) == (buf, 0)
            assert arena.resolve(buf.addr + buf.length - 1, 1) == (buf, buf.length - 1)
    assert arena.allocated_bytes == 4 * 3 * PAGE_SIZE
    with pytest.raises(ValueError):
        arena.free(gone)


def test_arena_zero_alloc_rejected():
    with pytest.raises(ValueError):
        MemoryArena().alloc(0)


def test_buffer_fill_peek_roundtrip():
    arena = MemoryArena()
    buf = arena.alloc(64)
    buf.fill(b"hello", offset=10)
    assert buf.peek(10, 5) == b"hello"
    with pytest.raises(ValueError):
        buf.fill(b"x" * 65)


def test_pages_spanned():
    assert pages_spanned(0, 1) == 1
    assert pages_spanned(0, PAGE_SIZE) == 1
    assert pages_spanned(0, PAGE_SIZE + 1) == 2
    assert pages_spanned(PAGE_SIZE - 1, 2) == 2  # straddles a boundary
    assert pages_spanned(0, 0) == 0
    assert pages_spanned(0, 128 * 1024) == 32


# ---------------------------------------------------------------- registration
def test_register_returns_valid_mr_with_unique_stag():
    sim, cpu, tpt = make_tpt()
    arena = MemoryArena()
    b1, b2 = arena.alloc(4096), arena.alloc(4096)

    def proc():
        mr1 = yield from tpt.register(b1, AccessFlags.REMOTE_READ)
        mr2 = yield from tpt.register(b2, AccessFlags.REMOTE_WRITE)
        return mr1, mr2

    mr1, mr2 = sim.run_until_complete(sim.process(proc()))
    assert mr1.valid and mr2.valid
    assert mr1.stag != mr2.stag
    assert 0 < mr1.stag < 2**32


def test_registration_cost_scales_with_pages():
    costs = RegistrationCosts(
        pin_cpu_per_page_us=0.0, reg_tpt_base_us=10.0, reg_tpt_per_page_us=2.0
    )
    sim, cpu, tpt = make_tpt(costs=costs)
    arena = MemoryArena()
    buf = arena.alloc(8 * PAGE_SIZE)

    def proc():
        yield from tpt.register(buf, AccessFlags.REMOTE_READ)

    sim.run_until_complete(sim.process(proc()))
    assert sim.now == pytest.approx(10.0 + 8 * 2.0)


def test_tpt_engine_serializes_concurrent_registrations():
    costs = RegistrationCosts(
        pin_cpu_per_page_us=0.0, reg_tpt_base_us=100.0, reg_tpt_per_page_us=0.0
    )
    sim, cpu, tpt = make_tpt(costs=costs)
    arena = MemoryArena()
    ends = []

    def proc():
        buf = arena.alloc(PAGE_SIZE)
        yield from tpt.register(buf, AccessFlags.REMOTE_READ)
        ends.append(sim.now)

    for _ in range(3):
        sim.process(proc())
    sim.run()
    assert ends == [100.0, 200.0, 300.0]  # serialized, not parallel


def test_pinning_runs_on_cpu_in_parallel():
    costs = RegistrationCosts(
        pin_cpu_per_page_us=10.0, reg_tpt_base_us=0.0, reg_tpt_per_page_us=0.0,
    )
    sim, cpu, tpt = make_tpt(costs=costs)
    arena = MemoryArena()
    ends = []

    def proc():
        buf = arena.alloc(PAGE_SIZE)
        yield from tpt.register(buf, AccessFlags.REMOTE_READ)
        ends.append(sim.now)

    for _ in range(2):
        sim.process(proc())
    sim.run()
    assert ends == [10.0, 10.0]  # two cores pin concurrently


def test_deregister_invalidates_and_unpins():
    sim, cpu, tpt = make_tpt()
    arena = MemoryArena()
    buf = arena.alloc(PAGE_SIZE * 4)

    def proc():
        mr = yield from tpt.register(buf, AccessFlags.REMOTE_READ)
        assert buf.pinned_pages == 4
        yield from tpt.deregister(mr)
        return mr

    mr = sim.run_until_complete(sim.process(proc()))
    assert not mr.valid
    assert buf.pinned_pages == 0
    with pytest.raises(ProtectionError):
        tpt.lookup(mr.stag, mr.addr, 1, AccessFlags.REMOTE_READ)


def test_deregister_is_idempotent():
    sim, cpu, tpt = make_tpt()
    arena = MemoryArena()
    buf = arena.alloc(PAGE_SIZE)

    def proc():
        mr = yield from tpt.register(buf, AccessFlags.REMOTE_READ)
        yield from tpt.deregister(mr)
        yield from tpt.deregister(mr)  # no-op, no error

    sim.run_until_complete(sim.process(proc()))
    assert tpt.deregistrations.events == 1


# ---------------------------------------------------------------- lookup / protection
def _registered_mr(access=AccessFlags.REMOTE_READ, size=PAGE_SIZE):
    sim, cpu, tpt = make_tpt()
    arena = MemoryArena()
    buf = arena.alloc(size)

    def proc():
        return (yield from tpt.register(buf, access))

    mr = sim.run_until_complete(sim.process(proc()))
    return tpt, mr, buf


def test_lookup_valid_access():
    tpt, mr, buf = _registered_mr(AccessFlags.REMOTE_READ | AccessFlags.REMOTE_WRITE)
    assert tpt.lookup(mr.stag, mr.addr, 100, AccessFlags.REMOTE_READ) is mr
    assert tpt.lookup(mr.stag, mr.addr, 100, AccessFlags.REMOTE_WRITE) is mr


def test_lookup_unknown_stag_faults():
    tpt, mr, buf = _registered_mr()
    with pytest.raises(ProtectionError):
        tpt.lookup((mr.stag + 1) % 2**32 or 1, mr.addr, 1, AccessFlags.REMOTE_READ)
    assert tpt.protection_faults.events == 1


def test_lookup_wrong_permission_faults():
    tpt, mr, buf = _registered_mr(AccessFlags.REMOTE_READ)
    with pytest.raises(ProtectionError):
        tpt.lookup(mr.stag, mr.addr, 1, AccessFlags.REMOTE_WRITE)


def test_lookup_out_of_bounds_faults():
    tpt, mr, buf = _registered_mr(size=PAGE_SIZE)
    with pytest.raises(ProtectionError):
        tpt.lookup(mr.stag, mr.addr + PAGE_SIZE - 10, 100, AccessFlags.REMOTE_READ)
    with pytest.raises(ProtectionError):
        tpt.lookup(mr.stag, mr.addr - 1, 10, AccessFlags.REMOTE_READ)


def test_mr_read_write_through_offsets():
    tpt, mr, buf = _registered_mr(AccessFlags.REMOTE_WRITE | AccessFlags.REMOTE_READ)
    mr.write(mr.addr + 64, b"payload")
    assert mr.read(mr.addr + 64, 7) == b"payload"
    assert buf.peek(64, 7) == b"payload"


def test_mr_access_after_invalidate_rejected():
    tpt, mr, buf = _registered_mr()
    mr.invalidate()
    with pytest.raises(ProtectionError):
        mr.read(mr.addr, 1)


def test_exposure_audit_tracks_remote_mrs():
    sim, cpu, tpt = make_tpt()
    arena = MemoryArena()

    def proc():
        local = yield from tpt.register(arena.alloc(PAGE_SIZE), AccessFlags.LOCAL_WRITE)
        remote = yield from tpt.register(arena.alloc(PAGE_SIZE), AccessFlags.REMOTE_READ)
        return local, remote

    local, remote = sim.run_until_complete(sim.process(proc()))
    exposed = tpt.remotely_exposed()
    assert remote in exposed and local not in exposed
    assert remote.stag in tpt.stags_exposed_ever


def test_registration_window_subset_of_buffer():
    sim, cpu, tpt = make_tpt()
    arena = MemoryArena()
    buf = arena.alloc(4 * PAGE_SIZE)

    def proc():
        mr = yield from tpt.register(
            buf, AccessFlags.REMOTE_READ, addr=buf.addr + PAGE_SIZE, length=PAGE_SIZE
        )
        return mr

    mr = sim.run_until_complete(sim.process(proc()))
    assert mr.npages == 1
    with pytest.raises(ProtectionError):
        tpt.lookup(mr.stag, buf.addr, 1, AccessFlags.REMOTE_READ)  # outside window


def test_registration_window_outside_buffer_rejected():
    sim, cpu, tpt = make_tpt()
    arena = MemoryArena()
    buf = arena.alloc(PAGE_SIZE)

    def proc():
        yield from tpt.register(buf, AccessFlags.REMOTE_READ, addr=buf.addr, length=2 * PAGE_SIZE)

    with pytest.raises(ValueError):
        sim.run_until_complete(sim.process(proc()))
