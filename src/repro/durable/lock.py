"""An exclusive inter-process file lock with bounded acquisition.

Journals shared between processes (the memo journal that batch workers,
server jobs and fleet shards all flush into) serialize their writers
through one lock file.  Locking uses ``fcntl.flock`` where available,
falling back to an atomic mkdir spin-lock elsewhere.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Optional

from repro.errors import CacheLockTimeout

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback exercised via flag
    fcntl = None

#: How often acquisition re-polls a contended lock (seconds).
_SPIN_S = 0.01


class FileLock:
    """An exclusive inter-process lock tied to a filesystem path.

    Reentrant within one instance is *not* supported — use one lock per
    critical section.  With ``fcntl`` the lock dies with the process, so
    a killed worker cannot leave the journal wedged; the mkdir fallback
    additionally honors ``stale_s`` to break locks left by crashes.

    Acquisition is bounded: a *live but hung* peer (which ``fcntl``
    cannot distinguish from a slow one) would otherwise block every
    other worker forever.  Past ``timeout_s`` the attempt raises the
    typed :class:`~repro.errors.CacheLockTimeout` (a ``TimeoutError``
    subclass, and transient — the caller may retry or degrade).  Pass
    ``timeout_s=None`` to block indefinitely.
    """

    def __init__(
        self,
        path: Path,
        timeout_s: Optional[float] = 30.0,
        stale_s: float = 60.0,
    ):
        self.path = Path(path)
        self.timeout_s = timeout_s
        self.stale_s = stale_s
        self._handle = None
        self._use_fcntl = fcntl is not None

    def _deadline(self) -> Optional[float]:
        if self.timeout_s is None:
            return None
        return time.monotonic() + self.timeout_s

    def _expired(self, deadline: Optional[float]) -> bool:
        return deadline is not None and time.monotonic() > deadline

    def acquire(self) -> None:
        """Take the lock, or raise :class:`CacheLockTimeout`."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        deadline = self._deadline()
        if self._use_fcntl:
            handle = open(self.path, "a+")
            while True:
                try:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
                    self._handle = handle
                    return
                except OSError:
                    if self._expired(deadline):
                        handle.close()
                        raise CacheLockTimeout(
                            f"could not lock {self.path} within "
                            f"{self.timeout_s:.1f}s (peer holding the lock?)"
                        ) from None
                    time.sleep(_SPIN_S)
        lock_dir = self.path.with_suffix(self.path.suffix + ".d")
        while True:
            try:
                os.mkdir(lock_dir)
                self._handle = lock_dir
                return
            except FileExistsError:
                try:
                    age = time.time() - lock_dir.stat().st_mtime
                    if age > self.stale_s:
                        os.rmdir(lock_dir)
                        continue
                except OSError:
                    pass
                if self._expired(deadline):
                    raise CacheLockTimeout(
                        f"could not lock {self.path} within "
                        f"{self.timeout_s:.1f}s (stale peer?)"
                    ) from None
                time.sleep(_SPIN_S)

    def release(self) -> None:
        """Release the lock if held; never raises."""
        if self._handle is None:
            return
        try:
            if self._use_fcntl:
                fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
                self._handle.close()
            else:
                os.rmdir(self._handle)
        except OSError:
            pass
        self._handle = None

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()
