"""Runtime invariant auditing for simulated and live sessions.

``repro.audit`` attaches a :class:`~repro.audit.auditor.SessionAuditor`
to a session as an event-loop observer
(:meth:`repro.sim.events.EventLoop.observe`) plus subscribers on the
pacer, link and path packet taps — nothing is wrapped, and detaching
removes exactly those subscriptions — and verifies, after every event,
that the stack still satisfies the conservation laws, state invariants
and control-law conformance the reproduction's claims rest on. See DESIGN.md ("Invariant auditing") for
the catalogue.

Entry points:

* ``repro run --check`` / ``REPRO_AUDIT=1`` — audit a sim session.
* ``repro fuzz`` — seeded random-scenario fuzzing under the auditor
  (:mod:`repro.audit.fuzz`), with shrinking to a minimal repro.
"""

from repro.audit.auditor import (InvariantViolation, SessionAuditor,
                                 Violation, attach_audit)

__all__ = ["InvariantViolation", "SessionAuditor", "Violation",
           "attach_audit"]
