"""Content-addressed result cache: results carried across processes and runs.

A simulation is a pure function of ``(rule table, scenario, seed)``, and whole
runs repeat them: a ``--resume`` replays the epochs since its checkpoint, a
re-run with the same seed replays everything, a sweep re-visits its cells.
(Repeats *within* one rule's climb never reach a backend — the optimizer
remembers those itself.)  This module memoizes the rest:

* a **cache key** is derived from the job's content, never its identity:
  the whisker-tree hash (structure + actions, not epochs or statistics), a
  scenario fingerprint (hashed from pickled bytes, since workload objects
  have no stable ``repr``), and the simulation seed;
* a :class:`ResultCache` stores the **pickled** :class:`SimJobResult`
  bytes (in memory, optionally mirrored to a directory), so a hit is
  bit-identical to recomputation;
* a :class:`CachingBackend` wraps any :class:`ExecutionBackend` with a
  look-aside check per job.

What *legitimately* invalidates a cache: a simulator behavior change (the
golden fingerprints move), a different interpreter major.minor (pickle
bytes differ), or an edit to the key derivation itself.  A stored entry that
no longer loads as a :class:`SimJobResult` is a counted miss: the job runs
and the entry is overwritten.

Uncacheable jobs (``None`` key: closure protocol factories) are passed
straight through.  Training jobs cache like any other — their statistics
are part of the stored result.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.runner.backends import ExecutionBackend
from repro.runner.jobs import SimJob, SimJobResult

if TYPE_CHECKING:
    from repro.core.whisker_tree import WhiskerTree


def whisker_tree_token(tree: "WhiskerTree") -> str:
    """Content hash of a rule table: structure and actions only.

    Per-whisker ``epoch`` counters and the tree ``name`` are stripped
    before hashing — neither affects how the tree maps memories to actions,
    and epochs advance every optimizer round, which would turn every
    hill-climb baseline re-visit into a spurious miss.  Statistics
    (use counts, sample reservoirs) never enter the serialized form at all.
    """
    # Imported here rather than at module scope: repro.core's package
    # __init__ imports the evaluator, which imports this package.
    from repro.core.serialization import whisker_tree_to_dict

    data = whisker_tree_to_dict(tree)
    data.pop("name", None)
    _strip_epochs(data.get("root", {}))
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _strip_epochs(node: dict[str, object]) -> None:
    whisker = node.get("whisker")
    if isinstance(whisker, dict):
        whisker.pop("epoch", None)
    children = node.get("children")
    if isinstance(children, list):
        for child in children:
            if isinstance(child, dict):
                _strip_epochs(child)


def _protocol_token(
    job: SimJob, tree_tokens: dict[int, str]
) -> Optional[str]:
    """The protocol-source half of a job's key, or ``None`` if uncacheable."""
    if job.tree is not None:
        key = id(job.tree)
        if key not in tree_tokens:
            tree_tokens[key] = whisker_tree_token(job.tree)
        return f"tree:{tree_tokens[key]}"
    if job.protocol_factory is not None:
        module = getattr(job.protocol_factory, "__module__", None)
        qualname = getattr(job.protocol_factory, "__qualname__", None)
        if not module or not qualname or "<" in qualname:
            # Lambdas/closures have no stable, content-addressable name.
            return None
        return f"factory:{module}.{qualname}"
    scenario = job.scenario
    if isinstance(scenario, str):
        from repro.scenarios import get_scenario

        scenario = get_scenario(scenario)
    assert scenario is not None  # SimJob guarantees one protocol source
    return f"scenario:{scenario.cache_token()}"


def _environment_token(job: SimJob) -> str:
    """Digest of the job's simulated environment (everything but protocol).

    Hashes pickled bytes rather than ``repr``\\ s: workload objects are
    plain classes with default (address-bearing) reprs, while their pickled
    form is a pure function of their configuration.
    """
    payload = (
        job.spec,
        job.duration,
        job.workloads,
        job.max_events,
        job.trace_flows,
        job.training,
    )
    return hashlib.sha256(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


def job_cache_key(
    job: SimJob, tree_tokens: Optional[dict[int, str]] = None
) -> Optional[str]:
    """The content-addressed cache key for one job, or ``None``.

    The key is ``(whisker-tree/protocol hash, scenario fingerprint, seed)``
    joined into one string; it deliberately excludes ``job_id`` (identity,
    not content — a hit rewrites the id).  ``tree_tokens`` memoizes tree
    hashing by object identity across the jobs of one batch, where the
    evaluator submits dozens of jobs sharing each rule table.
    """
    if tree_tokens is None:
        tree_tokens = {}
    protocol = _protocol_token(job, tree_tokens)
    if protocol is None:
        return None
    return f"{protocol}/{_environment_token(job)}/{job.seed}"


def batch_cache_keys(jobs: Sequence[SimJob]) -> list[Optional[str]]:
    """Per-job cache keys for one batch (shared-tree hashing memoized)."""
    tree_tokens: dict[int, str] = {}
    return [job_cache_key(job, tree_tokens) for job in jobs]


class ResultCache:
    """Maps content keys to pickled :class:`SimJobResult` bytes.

    Always memory-backed; pass ``path`` to also mirror entries into a
    directory (one file per key, written atomically) so a long design run
    survives process restarts with its cache warm.  ``get`` unpickles a
    *fresh* object per call — callers may mutate what they receive (the
    backend rewrites ``job_id``) without corrupting the stored bytes, and
    byte-equality of hits with recomputation stays exact.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self._memory: dict[str, bytes] = {}
        self._dir: Optional[Path] = None
        if path is not None:
            self._dir = Path(path)
            self._dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Misses whose entry existed but did not load (see :meth:`get`).
        self.unreadable = 0

    def __len__(self) -> int:
        return len(self._memory)

    def _file_for(self, key: str) -> Optional[Path]:
        if self._dir is None:
            return None
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self._dir / f"{digest}.result.pkl"

    def get_bytes(self, key: str) -> Optional[bytes]:
        """The stored pickled result for ``key``, counting hit/miss."""
        payload = self._memory.get(key)
        if payload is None:
            file = self._file_for(key)
            if file is not None and file.exists():
                payload = file.read_bytes()
                self._memory[key] = payload
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def get(self, key: str) -> Optional[SimJobResult]:
        """A fresh result object for ``key``, or ``None`` on a miss.

        A cache directory is input from outside the process, so an entry
        that does not load as a :class:`SimJobResult` is a miss, not a
        crash that every later run would repeat on the same key: it is
        counted in ``unreadable`` and dropped, the caller runs the job, and
        :meth:`put` replaces the file.
        """
        payload = self.get_bytes(key)
        if payload is None:
            return None
        try:
            result = pickle.loads(payload)
        except Exception:
            # Foreign bytes make pickle raise nearly anything: UnpicklingError
            # or EOFError on a truncated file, AttributeError/ImportError on
            # an entry whose classes have since moved.
            result = None
        if not isinstance(result, SimJobResult):
            self.hits -= 1  # get_bytes counted the lookup as a hit
            self.misses += 1
            self.unreadable += 1
            del self._memory[key]
            return None
        return result

    def put_bytes(self, key: str, payload: bytes) -> None:
        self._memory[key] = payload
        file = self._file_for(key)
        if file is None:
            return
        # Atomic publish (temp + rename), so a concurrent reader never sees
        # a torn pickle and a crash never leaves a partial entry behind.
        fd, temp_name = tempfile.mkstemp(dir=str(file.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(temp_name, file)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

    def put(self, key: str, result: SimJobResult) -> None:
        self.put_bytes(
            key, pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def stats(self) -> str:
        total = self.hits + self.misses
        rate = self.hits / total if total else 0.0
        return (
            f"{self.hits} hits / {total} lookups ({rate:.0%}), "
            f"{len(self._memory)} entries, {self.unreadable} unreadable"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"dir={str(self._dir)!r}" if self._dir is not None else "memory"
        return f"ResultCache({where}, {len(self._memory)} entries)"


class CachingBackend(ExecutionBackend):
    """Look-aside cache decorator over any :class:`ExecutionBackend`.

    Hits are served from the cache (with the job's ``job_id`` restored —
    keys are content-addressed, ids are batch positions); misses run on the
    wrapped backend as one sub-batch and are stored on the way out.
    Submission order is preserved, and because stored results are the
    pickled originals, a cached batch is bit-identical to a recomputed one.
    """

    def __init__(self, inner: ExecutionBackend, cache: ResultCache) -> None:
        self.inner = inner
        self.cache = cache

    def run_batch(self, jobs: Sequence[SimJob]) -> list[SimJobResult]:
        keys = batch_cache_keys(jobs)
        results: list[Optional[SimJobResult]] = [None] * len(jobs)
        miss_slots: list[int] = []
        for slot, (job, key) in enumerate(zip(jobs, keys)):
            cached = self.cache.get(key) if key is not None else None
            if cached is not None:
                cached.job_id = job.job_id
                results[slot] = cached
            else:
                miss_slots.append(slot)
        if miss_slots:
            inner_results = self.inner.run_batch([jobs[slot] for slot in miss_slots])
            for slot, result in zip(miss_slots, inner_results):
                results[slot] = result
                key = keys[slot]
                if key is not None:
                    self.cache.put(key, result)
        return results  # type: ignore[return-value]  # every slot filled above

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CachingBackend({self.inner!r}, {self.cache!r})"
