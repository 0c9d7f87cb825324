"""``repro serve``: a ledger-backed study server (stdlib only).

The serving layer turns the declarative :class:`repro.core.study.
StudySpec` API into a durable job queue over HTTP/JSON.  Four small
modules:

* :mod:`repro.server.queue` — :class:`StudyQueue`: queue state in a
  :class:`repro.parallel.RunLedger` (every transition one committed
  transaction), worker threads that lease studies and run them in
  runner subprocesses, per-study run ledgers and sharded eval caches
  under one state directory.
* :mod:`repro.server.runner` — the subprocess entry point that
  actually executes a leased study and reports back.
* :mod:`repro.server.app` / :mod:`repro.server.handlers` — the
  :class:`StudyServer` HTTP front end (``ThreadingHTTPServer``).
* :mod:`repro.server.client` — :class:`StudyClient`, the urllib
  client behind ``repro submit|status|watch|cancel``.

The durability contract: SIGKILL the server mid-study, boot a new one
on the same state directory, and the study resumes from its ledger —
finishing with outcomes bit-identical to an uninterrupted
``repro study run`` of the same spec (the killed served cells of
``tests/integration/equivalence.py``).
"""

from repro.server.app import StudyServer
from repro.server.client import DEFAULT_SERVER, ServerError, StudyClient
from repro.server.queue import StudyQueue

__all__ = [
    "StudyServer",
    "StudyQueue",
    "StudyClient",
    "ServerError",
    "DEFAULT_SERVER",
]
