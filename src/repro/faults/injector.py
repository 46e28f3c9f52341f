"""The fault injector: the flash array's oracle for what goes wrong.

:class:`FlashMemory` consults one injector at every program, read and
erase for as long as the injector is *live* — its plan can inject, a
power cut was armed, or a harness stubbed one of its oracles.  An idle
injector is skipped behind one attribute check, so the ideal device the
paper measures pays nothing for the fault model.  The three oracles
(:attr:`~FaultInjector.read_attempt_fails`,
:attr:`~FaultInjector.program_fails`, :attr:`~FaultInjector.erase_fails`)
are properties whose getter runs in C, so a consult enters the oracle's
frame and no other; assigning a stub to one (``injector.erase_fails =
lambda: True``) goes through the setter, which makes the injector live
and ordered.  Counting an operation is a plain attribute update.

The injector rolls its own :class:`random.Random` (seeded from the
plan), so a fault sequence is a pure function of (plan, operation
order) — rerunning a workload reproduces every fault at the same
operation, which is what makes fault regressions debuggable.

A live injector is *ordered* when the order of operations can change a
result (a cut was armed, a program can fail, an oracle was stubbed);
only then do the array's bulk moves go page by page, and only then does
an operation enter :meth:`on_operation` or a program ask whether it
fails.  Otherwise a read or a batch rolls its reads in one call
(:meth:`roll_reads`) and programs and erases are counted in place.

The injector also owns the power-cut countdown.  Power loss is raised at
the *start* of the operation on which power dies, before any state
mutates: the flash then holds exactly the operations that completed,
mirroring how a real controller's NAND state looks to a post-crash scan.
A program and the invalidation of the page it supersedes are not split
by a cut because invalidation is out-of-band bookkeeping (derived from
page sequence numbers on real hardware), not a separate flash
operation.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import Callable, List, Optional, Tuple

from ..errors import ConfigError, PowerLossError
from .plan import FaultPlan


def _oracle(method: Callable[["FaultInjector"], bool]) -> property:
    """A media-fault oracle slot over ``method``.

    Reading it is C-level (``attrgetter``), so a consult enters only the
    oracle's own frame.  Assigning to it swaps in a stub (``injector.
    erase_fails = lambda: True``, as what-if harnesses and tests do) and
    makes the injector live and ordered: on an idle injector nobody
    would ever ask the stub, and a stub may fire in any order.
    """
    private = method.__name__

    def stub(self: "FaultInjector", oracle: Callable[[], bool]) -> None:
        self.live = self.ordered = True
        setattr(self, private, oracle)

    return property(attrgetter(private), stub, doc=method.__doc__)


class FaultInjector:
    """Deterministic per-operation fault oracle for one flash array."""

    def __init__(self, plan: Optional[FaultPlan] = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self._rng = random.Random(self.plan.seed)
        #: True once anything here can fire; the flash array consults
        #: the injector only then.  Raised by a plan that is not a
        #: no-op, by :meth:`arm_power_loss` and by stubbing an oracle;
        #: never lowered, like :attr:`ordered`.
        self.live = not self.plan.is_noop
        #: True once the order of operations can change a result: a cut
        #: armed, a program that can fail, or a stubbed oracle.
        self.ordered = (self.plan.power_cut_after_ops is not None
                        or self.plan.program_fail_rate > 0.0)
        #: flash operations started while live (and not cut short): on
        #: an always-idle injector this stays 0.
        self.ops_seen = 0
        self._cut_at: Optional[int] = self.plan.power_cut_after_ops
        # injected-fault ground truth, for tests and reports
        self.injected_read_errors = 0
        self.injected_program_failures = 0
        self.injected_erase_failures = 0
        self.power_cuts = 0

    # ------------------------------------------------------------------
    # Power loss
    # ------------------------------------------------------------------
    @property
    def power_loss_armed(self) -> bool:
        """True while a power cut is pending."""
        return self._cut_at is not None

    def arm_power_loss(self, after_ops: int) -> None:
        """Cut power after ``after_ops`` more flash operations complete.

        ``after_ops=0`` means the very next operation dies.  Arming is
        relative to now, so a harness can build and prefill an FTL first
        and only then start the countdown.
        """
        if after_ops < 0:
            raise ConfigError("after_ops must be non-negative")
        self._cut_at = self.ops_seen + after_ops
        self.live = True
        self.ordered = True

    def disarm_power_loss(self) -> None:
        """Cancel a pending power cut (the harness 'reconnects power')."""
        self._cut_at = None

    def on_operation(self) -> None:
        """Account one flash operation; raise if power dies on it.

        Called by the flash array, while the injector is ordered (an
        unordered one is counted in place), at the start of every
        program attempt, read attempt and erase, before any change.
        """
        if self._cut_at is not None and self.ops_seen >= self._cut_at:
            self.power_cuts += 1
            raise PowerLossError(
                f"power lost after {self.ops_seen} flash operations")
        self.ops_seen += 1

    # ------------------------------------------------------------------
    # Media faults
    # ------------------------------------------------------------------
    def _read_attempt_fails(self) -> bool:
        """Roll one read attempt; True injects a transient ECC error."""
        if self.plan.read_error_rate <= 0.0:
            return False
        if self._rng.random() < self.plan.read_error_rate:
            self.injected_read_errors += 1
            return True
        return False

    def roll_reads(self, pages: int) -> List[Tuple[int, int]]:
        """Roll ``pages`` reads in order, retries included, in one call
        (unordered only): the draws and counts of :meth:`on_operation`
        and :meth:`read_attempt_fails` read by read.  -> ``(index,
        failed attempts)`` per read that failed at least once, ending
        at a read that failed past the retry budget."""
        rate = self.plan.read_error_rate
        if rate <= 0.0:
            self.ops_seen += pages
            return []
        draw = self._rng.random
        budget = self.plan.max_read_retries
        faults: List[Tuple[int, int]] = []
        retries = 0
        for index in range(pages):
            if draw() >= rate:
                continue
            failures = 1
            while failures <= budget and draw() < rate:
                failures += 1
            self.injected_read_errors += failures
            faults.append((index, failures))
            if failures > budget:
                self.ops_seen += index + 1 + retries + budget
                return faults
            retries += failures
        self.ops_seen += pages + retries
        return faults

    def _program_fails(self) -> bool:
        """Roll one program attempt; True marks the target page bad."""
        if self.plan.program_fail_rate <= 0.0:
            return False
        if self._rng.random() < self.plan.program_fail_rate:
            self.injected_program_failures += 1
            return True
        return False

    def _erase_fails(self) -> bool:
        """Roll one erase; True retires the block."""
        if self.plan.erase_fail_rate <= 0.0:
            return False
        if self._rng.random() < self.plan.erase_fail_rate:
            self.injected_erase_failures += 1
            return True
        return False

    read_attempt_fails = _oracle(_read_attempt_fails)
    program_fails = _oracle(_program_fails)
    erase_fails = _oracle(_erase_fails)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultInjector(ops_seen={self.ops_seen}, "
                f"armed={self.power_loss_armed}, "
                f"read_errors={self.injected_read_errors}, "
                f"program_failures={self.injected_program_failures}, "
                f"erase_failures={self.injected_erase_failures})")
