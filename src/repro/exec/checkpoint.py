"""Crash-safe sweep checkpoints: append-only journal + atomic snapshot.

Layout, under ``<runs dir>/sweeps/<sweep_id>/``:

- ``manifest.json`` — the sweep's identity: config hash, seed, the
  config itself and the cell count.  Written atomically once, checked
  on resume so a checkpoint can never be resumed under a different
  configuration.
- ``journal.jsonl`` — one line per completed cell, appended with
  flush + fsync *before* the supervisor considers the cell done.  A
  SIGKILL at any instant loses at most the in-flight cells; a torn
  final line (crash mid-append) is detected and dropped on load.
- ``snapshot.json`` — a periodic full snapshot written via tmp-file +
  ``os.replace`` (+ fsync), bounding journal replay time.  If it is
  corrupt the journal alone still reconstructs the state; the bad file
  is quarantined to ``snapshot.json.corrupt``.

- ``sweep.lock`` — an advisory lockfile (JSON ``{"pid": ...}``) held
  while an executor owns the checkpoint, so two concurrent resumes of
  the same sweep cannot interleave journal appends.  A lock whose
  holder pid is no longer alive is *stale* and broken automatically; a
  live holder raises :class:`~repro.errors.SweepLockError`.

The durable key is (config hash, seed): ``repro sweep --resume`` finds
the checkpoint by recomputing the hash from its arguments, so "the same
sweep" is a property of the request, not of a process lifetime.

All writes route through :mod:`repro.fsio` (the ``io`` constructor
argument), which is what lets the crash-consistency campaign enumerate
every syscall boundary in this file.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.errors import CheckpointError, SweepLockError
from repro.fsio import (
    JournalWriter,
    SimulatedCrash,
    fsync_dir,
    quarantine_corrupt,
    write_json_atomic,
)
from repro.exec.cells import CellResult

#: Bumped on incompatible checkpoint-layout changes.
CHECKPOINT_VERSION = 1

#: Default cells between snapshot rewrites.
SNAPSHOT_EVERY = 10

#: Lockfile name inside a sweep checkpoint directory.
LOCK_FILE = "sweep.lock"


def sweep_id(name: str, config_hash: str, seed: int) -> str:
    """The durable checkpoint key for one sweep request."""
    return f"{name}-{config_hash}-s{seed}"


class SweepLock:
    """Advisory per-sweep lockfile with stale-holder detection.

    Created with ``O_EXCL`` so exactly one process wins; the file body
    is JSON ``{"pid": ...}``.  A lock is considered *stale* — and
    silently broken — when any of these hold:

    - the recorded pid is not alive (``os.kill(pid, 0)`` says so);
    - the recorded pid is *this* process (a previous in-process owner
      crashed without releasing — the simulated-crash path — and a
      process cannot race itself);
    - the body does not parse (the lock itself was torn by a crash).

    A lock held by a different live process raises
    :class:`~repro.errors.SweepLockError`.
    """

    def __init__(self, path: str, io=None):
        from repro.fsio import REAL_IO
        self.path = path
        self.io = io if io is not None else REAL_IO
        self._held = False

    def acquire(self) -> None:
        if self._held:
            return
        self.io.makedirs(os.path.dirname(self.path) or ".")
        while True:
            try:
                handle = self.io.open_exclusive(self.path)
            except FileExistsError:
                holder = self._holder_pid()
                if holder is not None and self._alive(holder):
                    raise SweepLockError(
                        f"sweep checkpoint is locked by live pid {holder}; "
                        f"another resume is running (remove {self.path} "
                        f"only if you are sure it is not)",
                    )
                # Stale (dead holder, our own pid, or torn body): break it.
                try:
                    self.io.remove(self.path)
                except FileNotFoundError:
                    pass  # the holder released between our check and remove
                continue
            try:
                self.io.write(handle, json.dumps({"pid": os.getpid()}) + "\n")
                self.io.flush(handle)
            finally:
                self.io.close(handle)
            self._held = True
            return

    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            self.io.remove(self.path)
        except (OSError, SimulatedCrash):  # repro: allow[ERR002]
            # A dead (or dying) process cannot release its lock: the
            # stale file stays behind for fsck / the next acquire to
            # break, which is exactly the state being simulated.
            pass

    def _holder_pid(self) -> Optional[int]:
        """The pid recorded in the lockfile, or None if unreadable."""
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                body = json.load(handle)
            return int(body["pid"])
        except (OSError, ValueError, KeyError, TypeError):  # repro: allow[ERR002] — read-path probe, unreadable == stale
            return None  # torn or foreign lock body: treat as stale

    @staticmethod
    def _alive(pid: int) -> bool:
        if pid == os.getpid():
            return False  # our own leftover (in-process crash recovery)
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        except PermissionError:  # repro: allow[ERR002] — signal-0 probe, not a write
            return True  # alive, just not ours to signal
        except OSError:  # repro: allow[ERR002] — signal-0 probe, not a write
            return False
        return True


class SweepCheckpoint:
    """Journaled progress of one sweep, resumable after any crash."""

    def __init__(self, root: str, sweep: str, *,
                 snapshot_every: int = SNAPSHOT_EVERY, io=None):
        self.dir = os.path.join(root, "sweeps", sweep)
        self.sweep = sweep
        self.snapshot_every = snapshot_every
        self.io = io
        self.lock = SweepLock(os.path.join(self.dir, LOCK_FILE), io=io)
        self._journal: Optional[JournalWriter] = None
        self._since_snapshot = 0
        self._results: Dict[str, CellResult] = {}

    # ---- paths ------------------------------------------------------------
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.dir, "manifest.json")

    @property
    def journal_path(self) -> str:
        return os.path.join(self.dir, "journal.jsonl")

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.dir, "snapshot.json")

    def exists(self) -> bool:
        return os.path.isfile(self.manifest_path)

    # ---- lifecycle --------------------------------------------------------
    def initialise(self, *, config_hash: str, seed: int, config: dict,
                   n_cells: int) -> None:
        """Create the checkpoint directory and manifest (idempotent).

        Resuming with a different config hash is refused: a checkpoint
        answers exactly one (config, seed) request.
        """
        from repro.fsio import REAL_IO
        (self.io or REAL_IO).makedirs(self.dir)
        if self.exists():
            manifest = self.manifest()
            if manifest.get("config_hash") != config_hash:
                raise CheckpointError(
                    f"checkpoint {self.sweep!r} belongs to config "
                    f"{manifest.get('config_hash')!r}, not {config_hash!r}; "
                    f"remove {self.dir} or change --name",
                )
            return
        write_json_atomic(self.manifest_path, {
            "version": CHECKPOINT_VERSION,
            "sweep": self.sweep,
            "config_hash": config_hash,
            "seed": seed,
            "config": config,
            "n_cells": n_cells,
        }, io=self.io)

    def manifest(self) -> dict:
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise CheckpointError(
                f"unreadable sweep manifest {self.manifest_path}: {error}"
            )

    # ---- writing ----------------------------------------------------------
    def record(self, result: CellResult) -> None:
        """Durably journal one finished cell before anything else sees it."""
        if self._journal is None:
            self._journal = JournalWriter(self.journal_path, io=self.io)
        self._journal.append(result.to_dict())
        self._results[result.cell_id] = result
        self._since_snapshot += 1
        if self._since_snapshot >= self.snapshot_every:
            self.write_snapshot()

    def write_snapshot(self) -> None:
        """Atomically persist the consolidated state (tmp + replace)."""
        write_json_atomic(self.snapshot_path, {
            "version": CHECKPOINT_VERSION,
            "sweep": self.sweep,
            "cells": {
                cell_id: result.to_dict()
                for cell_id, result in sorted(self._results.items())
            },
        }, io=self.io)
        self._since_snapshot = 0

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        if self._results:
            self.write_snapshot()
        fsync_dir(self.dir, io=self.io)

    # ---- reading ----------------------------------------------------------
    def load(self) -> Dict[str, CellResult]:
        """Reconstruct completed cells: snapshot first, journal on top.

        Tolerates a torn final journal line (crash mid-append) and a
        corrupt snapshot (quarantined aside); either source alone is
        enough to resume.
        """
        self._results = {}
        if os.path.isfile(self.snapshot_path):
            try:
                with open(self.snapshot_path, "r", encoding="utf-8") as handle:
                    snapshot = json.load(handle)
                for data in snapshot.get("cells", {}).values():
                    result = CellResult.from_dict(data)
                    self._results[result.cell_id] = result
            except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                    ValueError):
                self._results = {}
                quarantine_corrupt(self.snapshot_path)
        if os.path.isfile(self.journal_path):
            with open(self.journal_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        result = CellResult.from_dict(json.loads(line))
                    except (json.JSONDecodeError, KeyError, ValueError):
                        # Torn tail from a crash mid-append: everything
                        # before it is intact, the in-flight cell reruns.
                        continue
                    self._results[result.cell_id] = result
        return dict(self._results)

    def completed(self) -> Dict[str, CellResult]:
        """Cells that finished OK (quarantined ones rerun on resume)."""
        return {
            cell_id: result
            for cell_id, result in self._results.items()
            if result.status == "ok"
        }
