"""Content-addressed on-disk cache for trial outcomes.

A sweep cell is fully determined by two things: the trial configuration
(every field of :class:`~repro.experiments.config.ExperimentConfig`,
including its seed) and the version of the simulation code.  The cache key
is a SHA-256 digest over both, so

* re-running the same sweep (e.g. to regenerate a figure with different
  formatting) hits the cache for every cell,
* changing any config field -- even just the seed -- misses,
* editing any source file under :mod:`repro` invalidates the whole cache,
  because stale results from old physics are worse than recomputation.

Entries are pickled :class:`~repro.experiments.config.TrialOutcome` objects
stored one-file-per-key, which makes the cache trivially safe under
concurrent writers (the worst case is two processes writing identical bytes
to the same path).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from repro.experiments.config import ExperimentConfig, TrialOutcome

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default cache location when the environment does not override it.
DEFAULT_CACHE_DIR = "~/.cache/repro-quantum"

_code_version: Optional[str] = None


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so that readers never observe a torn file.

    The bytes land in a uniquely named ``*.tmp`` sibling first and are
    moved into place with ``os.replace`` -- atomic on POSIX within one
    filesystem -- so any number of concurrent writers racing on the same
    ``path`` each publish a complete file and the last one wins.  The
    temporary file is unlinked on *any* failure (including the replace
    itself), so a crashed writer cannot leave ``*.tmp`` orphans behind;
    only a writer killed between ``close`` and ``replace`` can, and
    :meth:`ResultCache.clear` sweeps those up.
    """
    descriptor, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass  # already replaced or the directory vanished
        raise


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-quantum``."""
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR).expanduser()


def code_version() -> str:
    """A digest of every source file in the installed :mod:`repro` package.

    Computed once per process and memoised; any edit to any ``.py`` file
    under the package changes the digest and therefore every cache key.
    """
    global _code_version
    if _code_version is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(path.read_bytes())
        _code_version = digest.hexdigest()[:16]
    return _code_version


def config_digest(config: ExperimentConfig, version: Optional[str] = None) -> str:
    """The content address of one sweep cell: SHA-256 over the config and
    the code version."""
    payload = {
        "config": asdict(config),
        "code_version": version if version is not None else code_version(),
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def reset(self) -> None:
        self.hits = self.misses = self.stores = 0


class ResultCache:
    """A content-addressed store of :class:`TrialOutcome` pickles.

    Parameters
    ----------
    directory:
        Where to keep the entries; created on first store.  Defaults to
        :func:`default_cache_dir`.
    """

    def __init__(self, directory: Optional[os.PathLike] = None):
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, config: ExperimentConfig) -> Optional[TrialOutcome]:
        """The cached outcome for ``config``, or ``None`` on a miss.

        A corrupt or unreadable entry counts as a miss (and is removed), so
        an interrupted writer can never poison future sweeps.
        """
        path = self._path(config_digest(config))
        try:
            with open(path, "rb") as handle:
                outcome = pickle.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass  # unreadable *and* undeletable (e.g. bad directory): still a miss
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return outcome

    def put(self, config: ExperimentConfig, outcome: TrialOutcome) -> None:
        """Store ``outcome`` under ``config``'s content address.

        Publication goes through :func:`atomic_write_bytes`, so concurrent
        writers racing on one key (sweep workers, serve-daemon jobs, and
        independent processes alike) each install a complete entry and a
        concurrent :meth:`get` sees either an old complete value or a new
        complete value -- never a torn read, never a ``*.tmp`` orphan from
        a failed write.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(config_digest(config))
        atomic_write_bytes(path, pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL))
        self.stats.stores += 1

    def __contains__(self, config: ExperimentConfig) -> bool:
        return self._path(config_digest(config)).exists()

    def __len__(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Also sweeps up orphaned ``*.tmp`` files left behind by writers
        killed between creating their temporary file and the atomic rename
        in :meth:`put` (those are invisible to :meth:`get`/:meth:`__len__`
        but would otherwise accumulate forever).
        """
        removed = 0
        if self.directory.exists():
            for path in self.directory.glob("*.pkl"):
                path.unlink(missing_ok=True)
                removed += 1
            for path in self.directory.glob("*.tmp"):
                path.unlink(missing_ok=True)
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache(directory={str(self.directory)!r}, entries={len(self)})"
