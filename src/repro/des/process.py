"""Generator-based processes and waitable primitives.

This is a small, deterministic process layer in the style of SimPy:

* a :class:`Waitable` is anything a process can ``yield`` on;
* a :class:`Timeout` triggers after a simulated delay;
* a :class:`Signal` is a one-shot event triggered by user code;
* a :class:`Process` wraps a generator and is itself waitable, so
  processes can wait for each other.

All resumptions go through the kernel's event heap (never re-entrantly),
so process interleaving is a deterministic function of the event order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

from .errors import Interrupt, ProcessError

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Simulation

#: Priority used for process resumptions; lower than default so that plain
#: callbacks scheduled at the same instant run first (e.g. state bookkeeping
#: completes before a waiting process observes it).
RESUME_PRIORITY = 5


class Waitable:
    """Base class for things a process can wait on.

    A waitable triggers exactly once, either successfully (with a value) or
    with an exception. Callbacks added after triggering fire immediately via
    the kernel's event heap at the current simulated time.

    The hierarchy is slotted: waitables are allocated on the kernel hot
    path (every timeout and process resume creates one), and slot
    storage is measurably cheaper than per-instance dicts. Subclasses
    outside this module may still declare ad-hoc attributes — they get a
    __dict__ unless they declare __slots__ themselves.
    """

    __slots__ = ("sim", "triggered", "ok", "value", "exception", "_callbacks")

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self.triggered = False
        self.ok: Optional[bool] = None
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        self._callbacks: list[Callable[[Waitable], None]] = []

    def add_callback(self, fn: Callable[["Waitable"], None]) -> None:
        """Register ``fn`` to run when the waitable triggers."""
        if self.triggered:
            sim = self.sim
            # Kernel push without call_at's past-time guard, vacuous for
            # an event scheduled at now; resumptions are hot.
            sim._push(sim._now, fn, (self,), RESUME_PRIORITY)
        else:
            self._callbacks.append(fn)

    def succeed(self, value: Any = None) -> "Waitable":
        """Trigger successfully, delivering ``value`` to waiters."""
        self._trigger(True, value, None)
        return self

    def fail(self, exception: BaseException) -> "Waitable":
        """Trigger with an exception, which is raised in each waiter."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(False, None, exception)
        return self

    def _trigger(self, ok: bool, value: Any, exc: Optional[BaseException]) -> None:
        if self.triggered:
            raise ProcessError(f"{self!r} already triggered")
        self.triggered = True
        self.ok = ok
        self.value = value
        self.exception = exc
        callbacks, self._callbacks = self._callbacks, []
        if callbacks:
            sim = self.sim
            push = sim._push
            now = sim._now
            for fn in callbacks:
                push(now, fn, (self,), RESUME_PRIORITY)


class Signal(Waitable):
    """A one-shot event triggered explicitly by user code."""

    __slots__ = ()


class Timeout(Waitable):
    """A waitable that succeeds after ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulation", delay: float) -> None:
        super().__init__(sim)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self.delay = delay
        # Kernel push; the non-negative check above subsumes call_in's
        # validation.
        sim._push(sim._now + delay, self._fire, ())

    def _fire(self) -> None:
        if not self.triggered:
            self.succeed()


class AllOf(Waitable):
    """Succeeds when every child waitable has triggered successfully.

    The value is the list of child values in the original order. The first
    failing child fails the composite.
    """

    __slots__ = ("children", "_pending")

    def __init__(self, sim: "Simulation", children: Iterable[Waitable]) -> None:
        super().__init__(sim)
        self.children = list(children)
        self._pending = len(self.children)
        if self._pending == 0:
            self.succeed([])
            return
        for child in self.children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Waitable) -> None:
        if self.triggered:
            return
        if not child.ok:
            self.fail(child.exception)  # type: ignore[arg-type]
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([c.value for c in self.children])


class Process(Waitable):
    """A generator-based simulated process.

    The generator yields :class:`Waitable` objects; the process resumes with
    the waitable's value (or the waitable's exception raised at the yield
    point). When the generator returns, the process triggers with its return
    value.
    """

    __slots__ = ("name", "_generator", "_waiting_on")

    def __init__(
        self,
        sim: "Simulation",
        generator: Generator[Waitable, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise ProcessError(f"Process requires a generator, got {generator!r}")
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Waitable] = None
        # Bootstrap: first resume happens via the event heap at `now`.
        sim._push(sim._now, self._resume, (None, None), RESUME_PRIORITY)

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield."""
        if self.triggered:
            raise ProcessError(f"cannot interrupt finished process {self.name}")
        target = self._waiting_on
        if target is not None and not target.triggered:
            # Detach from the waitable so a later trigger does not double-resume.
            try:
                target._callbacks.remove(self._on_wait_done)
            except ValueError:
                pass
        self._waiting_on = None
        self.sim.call_at(
            self.sim.now, self._resume, None, Interrupt(cause), priority=RESUME_PRIORITY
        )

    # -- internal machinery -------------------------------------------------

    def _on_wait_done(self, waitable: Waitable) -> None:
        if self.triggered or self._waiting_on is not waitable:
            return  # stale callback (interrupted in the meantime)
        self._waiting_on = None
        if waitable.ok:
            self._resume(waitable.value, None)
        else:
            self._resume(None, waitable.exception)

    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.triggered:
            return
        try:
            if exc is not None:
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - propagate to waiters
            self.fail(error)
            return
        if not isinstance(target, Waitable):
            self._generator.close()
            self.fail(
                ProcessError(
                    f"process {self.name!r} yielded non-waitable {target!r}"
                )
            )
            return
        self._waiting_on = target
        target.add_callback(self._on_wait_done)
