"""Persistent on-disk job store for the experiment service.

One JSON file per job under ``<service-dir>/jobs/``, written atomically
with the result cache's :func:`~repro.cache.atomic_write_text`
discipline — a job record is always either the old version or the new
one, never a torn write, so ``watch`` can tail it and a crashed worker
leaves a readable record behind.

Claiming is made safe against concurrent worker processes with an
``O_EXCL`` lock file per job under ``<service-dir>/locks/``: exactly one
claimer wins, and :meth:`JobStore.recover` reclaims locks whose worker
pid is dead (the SIGKILL path): a ``running`` job is requeued, and a
``queued`` job whose claimant died before saving its claim just loses
the stale lock.  Progress already persisted per-trial in the result
cache survives regardless, so a requeued job resumes instead of
restarting.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
import uuid
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.cache import atomic_write_text

#: The job lifecycle.  ``queued`` and ``running`` are live; ``done`` and
#: ``failed`` are terminal.  A retryable failure moves ``running`` back
#: to ``queued`` (with the attempt consumed) rather than to ``failed``.
JOB_STATES = ("queued", "running", "done", "failed")

#: Default per-job attempt budget: the first run plus two retries.
DEFAULT_MAX_ATTEMPTS = 3


def _pid_alive(pid: Optional[int]) -> bool:
    """Best-effort liveness probe of a worker pid on this host."""
    if pid is None:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


@dataclass
class JobRecord:
    """One experiment-service job, as persisted in its JSON record.

    ``kind`` is ``"sweep"`` (``spec`` holds canonical
    :class:`~repro.sim.sweeps.ScenarioSpec` dicts plus ``n_trials``) or
    ``"experiment"`` (``spec`` holds a registered experiment id plus its
    options).  ``progress`` streams ``{"total", "done", "cached"}`` trial
    counters as chunks complete; ``attempts`` counts claims against
    ``max_attempts``; ``timeout`` bounds one attempt's wall-clock seconds
    (checked between chunks).
    """

    job_id: str
    kind: str
    spec: Dict[str, Any]
    state: str = "queued"
    attempts: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    timeout: Optional[float] = None
    progress: Dict[str, int] = field(
        default_factory=lambda: {"total": 0, "done": 0, "cached": 0}
    )
    error: Optional[str] = None
    worker_pid: Optional[int] = None
    created_at: float = 0.0
    updated_at: float = 0.0
    result: Optional[Dict[str, Any]] = None

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 — field names
        return cls(**{k: v for k, v in data.items() if k in known})


class JobStore:
    """The on-disk job queue: submit, claim, progress, recover.

    All state lives under ``root``: ``jobs/<id>.json`` records and
    ``locks/<id>.lock`` claim files.  Every record write is atomic; every
    state transition is written through :meth:`save`, so the queue
    survives any crash at any point.
    """

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        self.jobs_dir = self.root / "jobs"
        self.locks_dir = self.root / "locks"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.locks_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def job_path(self, job_id: str) -> pathlib.Path:
        return self.jobs_dir / f"{job_id}.json"

    def lock_path(self, job_id: str) -> pathlib.Path:
        return self.locks_dir / f"{job_id}.lock"

    # ------------------------------------------------------------------
    def submit(
        self,
        kind: str,
        spec: Dict[str, Any],
        *,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        timeout: Optional[float] = None,
        job_id: Optional[str] = None,
    ) -> JobRecord:
        """Enqueue a new job; returns its (saved) record."""
        if kind not in ("sweep", "experiment"):
            raise ValueError(f"unknown job kind {kind!r}")
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        if job_id is None:
            job_id = f"{time.time_ns():x}-{uuid.uuid4().hex[:6]}"
        if self.job_path(job_id).exists():
            raise ValueError(f"job {job_id!r} already exists")
        record = JobRecord(
            job_id=job_id,
            kind=kind,
            spec=spec,
            max_attempts=max_attempts,
            timeout=timeout,
            created_at=time.time(),
        )
        self.save(record)
        return record

    def save(self, record: JobRecord) -> None:
        """Persist ``record`` atomically (stamps ``updated_at``)."""
        record.updated_at = time.time()
        atomic_write_text(
            self.job_path(record.job_id),
            json.dumps(record.to_dict(), indent=2) + "\n",
        )

    def get(self, job_id: str) -> JobRecord:
        path = self.job_path(job_id)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            raise KeyError(f"unknown job {job_id!r}") from None
        return JobRecord.from_dict(json.loads(raw))

    def list_jobs(self, states: Optional[Sequence[str]] = None) -> List[JobRecord]:
        """All jobs (optionally filtered by state), oldest first."""
        records = []
        for path in self.jobs_dir.glob("*.json"):
            try:
                record = JobRecord.from_dict(json.loads(path.read_text()))
            except (OSError, ValueError, TypeError):
                continue  # a record mid-replace or foreign file: skip
            if states is None or record.state in states:
                records.append(record)
        records.sort(key=lambda record: (record.created_at, record.job_id))
        return records

    # ------------------------------------------------------------------
    def claim(self, job_id: str) -> Optional[JobRecord]:
        """Atomically claim a queued job; ``None`` if someone else won.

        The ``O_EXCL`` lock file makes the claim race-free across worker
        processes; the claim consumes one attempt and moves the record to
        ``running`` with this process's pid (the liveness token
        :meth:`recover` probes).
        """
        try:
            fd = os.open(
                self.lock_path(job_id), os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return None
        with os.fdopen(fd, "w") as handle:
            handle.write(str(os.getpid()))
        record = self.get(job_id)
        if record.state != "queued":
            self.release(job_id)
            return None
        record.state = "running"
        record.worker_pid = os.getpid()
        record.attempts += 1
        record.error = None
        self.save(record)
        return record

    def release(self, job_id: str) -> None:
        self.lock_path(job_id).unlink(missing_ok=True)

    def requeue(
        self,
        record: JobRecord,
        *,
        error: Optional[str] = None,
        consume_attempt: bool = True,
    ) -> None:
        """Put a running job back on the queue (retry or graceful shutdown).

        A retryable failure keeps the attempt consumed at claim time; a
        graceful shutdown refunds it — being interrupted is not the
        job's fault, and its per-trial progress is already in the cache.
        """
        record.state = "queued"
        record.worker_pid = None
        record.error = error
        if not consume_attempt:
            record.attempts = max(0, record.attempts - 1)
        self.save(record)
        self.release(record.job_id)

    def finish(self, record: JobRecord, result: Optional[Dict[str, Any]]) -> None:
        record.state = "done"
        record.worker_pid = None
        record.error = None
        record.result = result
        self.save(record)
        self.release(record.job_id)

    def fail(self, record: JobRecord, error: str) -> None:
        record.state = "failed"
        record.worker_pid = None
        record.error = error
        self.save(record)
        self.release(record.job_id)

    # ------------------------------------------------------------------
    def recover(self) -> List[JobRecord]:
        """Requeue running jobs whose worker died; returns what changed.

        The restart half of crash tolerance: a job whose claimant pid no
        longer exists (SIGKILL, OOM, power loss) goes back to ``queued``
        — its crashed attempt stays consumed, and a job that already
        exhausted its budget fails instead of looping forever.  The
        per-trial results its worker stored before dying remain in the
        cache, so the requeued job resumes rather than restarts.

        A claimant can also die between creating the lock and saving the
        ``running`` record.  The job is still ``queued`` but no claim
        can win it, so its lock is released when the pid written there
        is dead; the claim never consumed an attempt, so none is charged.
        """
        recovered = []
        for record in self.list_jobs(states=("queued",)):
            try:
                pid = int(self.lock_path(record.job_id).read_text())
            except (OSError, ValueError):
                continue  # no lock, or a claim still writing its pid
            if _pid_alive(pid):
                continue
            self.release(record.job_id)
            recovered.append(record)
        for record in self.list_jobs(states=("running",)):
            if _pid_alive(record.worker_pid):
                continue
            self.release(record.job_id)
            if record.attempts >= record.max_attempts:
                self.fail(record, "worker died and the attempt budget is exhausted")
            else:
                self.requeue(record, error="worker died; requeued")
            recovered.append(record)
        return recovered
