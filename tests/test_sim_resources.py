"""Unit tests for Resource / Store / Container contention primitives."""

import pytest

from repro.sim import Container, Resource, SimulationError, Simulator, Store


# ---------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    sim.run()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.count == 2
    assert res.queue_length == 1


def test_resource_release_wakes_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(tag, hold):
        req = res.request()
        yield req
        order.append(("start", tag, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    for tag in "abc":
        sim.process(user(tag, 10.0))
    sim.run()
    assert order == [("start", "a", 0.0), ("start", "b", 10.0), ("start", "c", 20.0)]


def test_resource_priority_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def holder():
        req = res.request()
        yield req
        yield sim.timeout(5.0)
        res.release(req)

    def user(tag, prio, delay):
        yield sim.timeout(delay)
        req = res.request(priority=prio)
        yield req
        order.append(tag)
        res.release(req)

    sim.process(holder())
    sim.process(user("low", 5, 1.0))
    sim.process(user("high", -5, 2.0))  # arrives later but higher priority
    sim.run()
    assert order == ["high", "low"]


def test_resource_release_unheld_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    other = Resource(sim, capacity=1).request()
    sim.run()
    with pytest.raises(SimulationError):
        res.release(other)


def test_resource_bad_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_cancel_waiting_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()
    waiting = res.request()
    waiting.cancel()
    sim.run()
    res.release(held)
    sim.run()
    assert res.count == 0  # cancelled request never granted


# ---------------------------------------------------------------- Store
def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    got = store.get()
    sim.run()
    assert got.value == "x"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, sim.now))

    def producer():
        yield sim.timeout(5.0)
        store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("late", 5.0)]


def test_store_fifo_ordering():
    sim = Simulator()
    store = Store(sim)
    for i in range(5):
        store.put(i)
    out = []

    def consumer():
        for _ in range(5):
            out.append((yield store.get()))

    sim.process(consumer())
    sim.run()
    assert out == [0, 1, 2, 3, 4]


def test_store_bounded_put_blocks():
    sim = Simulator()
    store = Store(sim, capacity=1)
    store.put("a")
    second = store.put("b")
    sim.run()
    assert not second.triggered
    got = store.get()
    sim.run()
    assert got.value == "a"
    assert second.triggered
    assert store.items == ("b",)


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    ok, item = store.try_get()
    assert not ok and item is None
    store.put(9)
    ok, item = store.try_get()
    assert ok and item == 9


# ---------------------------------------------------------------- Container
def test_container_get_blocks_until_level():
    sim = Simulator()
    tank = Container(sim, capacity=100, init=0)
    fired = []

    def getter():
        yield tank.get(30)
        fired.append(sim.now)

    def putter():
        yield sim.timeout(4.0)
        yield tank.put(30)

    sim.process(getter())
    sim.process(putter())
    sim.run()
    assert fired == [4.0]
    assert tank.level == 0


def test_container_put_blocks_at_capacity():
    sim = Simulator()
    tank = Container(sim, capacity=10, init=10)
    put = tank.put(5)
    sim.run()
    assert not put.triggered
    got = tank.get(5)
    sim.run()
    assert got.triggered and put.triggered
    assert tank.level == 10


def test_container_init_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Container(sim, capacity=10, init=11)


def test_container_negative_amounts_rejected():
    sim = Simulator()
    tank = Container(sim, capacity=10, init=5)
    with pytest.raises(SimulationError):
        tank.get(-1)
    with pytest.raises(SimulationError):
        tank.put(-1)


def test_container_fifo_fairness():
    sim = Simulator()
    tank = Container(sim, capacity=100, init=0)
    order = []

    def getter(tag, amount):
        yield tank.get(amount)
        order.append(tag)

    sim.process(getter("big-first", 50))
    sim.process(getter("small-second", 1))

    def feeder():
        yield sim.timeout(1.0)
        yield tank.put(60)

    sim.process(feeder())
    sim.run()
    # FIFO: the big request must be served before the small one.
    assert order == ["big-first", "small-second"]
