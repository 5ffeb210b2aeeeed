"""The worker pool: one forked, reusable pool behind every parallel map.

Execution model
---------------

``parallel_map(fn, items)`` and :meth:`PersistentPool.map` split
``items`` into contiguous chunks and run each chunk in a forked worker
process. Item payloads (parameters and ``numpy.random.Generator``
streams) are pickled, which preserves RNG state exactly. Each worker
chunk opens a fresh observation window (``obs.reset()`` plus
:meth:`~repro.obs.tracing.Tracer.detach_open_spans`), runs its tasks,
and returns ``(values, registry state, finished spans, events, t0)``.
The parent merges every chunk's registry delta and absorbs its spans —
rebased onto the parent timeline at the chunk's dispatch instant — so
one ``metrics.json``/trace describes the whole run no matter where the
work happened.

How the trial function reaches the workers:

* **A warm pool** (:class:`PersistentPool` entered with ``with``)
  forked before the function existed, so the function crosses the pipe
  by pickle with every chunk. Use module-level functions or
  :func:`functools.partial` over picklable arguments.
* **A one-shot pool.** Sweep trial functions are often closures over
  experiment parameters (scene geometry, bit rates, …), and closures
  cannot be pickled. For those — and for any call with no warm pool
  installed — :func:`parallel_map` runs one short-lived
  :class:`PersistentPool` that is never installed for routing. It
  forks lazily, on its first chunk, after the function is parked in
  the module global :data:`_WORKER_FN`, so the children inherit it
  copy-on-write and chunks ship no function at all.

Warm state: a pool's workers keep everything they warm up —
``repro.sim.cache`` entries, imported modules, the shm resource tracker
— across chunks and across map calls. The transport is shipped with
every chunk, so a parent-side ``--transport`` change reaches workers
forked earlier.

Streaming: :meth:`PersistentPool.imap_chunks` yields ordered per-chunk
results as they arrive with a bounded submission window, so a consumer
(the dataset shard writer) runs with bounded memory no matter how large
the item list is.

Failure model: exceptions raised by ``fn`` propagate to the caller
exactly as in a serial loop. Pool *infrastructure* failures (fork
unavailable, pool refuses to start, workers die) instead rerun the
chunks not yet delivered in-process — bit-identical, because the
parent's RNG copies were never advanced — and bump
``parallel.fallbacks{reason=...}``; a warm pool re-forks on its next
call. ``shutdown()`` is idempotent and also runs from a context-manager
exit and an ``atexit`` hook, so no run ends with zombie workers, and
shared-memory arenas are swept on every exit path — success, trial
exception, ``KeyboardInterrupt``, broken pool.

Transport: large ndarray payloads and results ride shared-memory
arenas instead of the pickle pipe when :mod:`repro.parallel.shm` is in
its default ``shm`` mode — the parent packs each chunk's arrays into
one arena, the worker runs the trial function on views, and the parent
reassembles owned copies and unlinks. RNG streams, scalars, and the
obs delta stay pickled either way, so values are bit-identical across
transports; ``parallel.bytes_shipped{path=pickle|shm}`` counts what
moved over each path.

See ``docs/PERFORMANCE.md`` for the measured warm-vs-one-shot speedup
(``bench.parallel.warm_pool_speedup``).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro import obs
from repro.errors import ConfigurationError
from repro.obs import stream
from repro.parallel import shm

__all__ = [
    "DEFAULT_WORKERS_ENV",
    "ParallelResult",
    "PersistentPool",
    "active_pool",
    "parallel_map",
    "resolve_max_workers",
]

#: Environment variable consulted when ``max_workers`` is not given.
DEFAULT_WORKERS_ENV = "REPRO_MAX_WORKERS"

#: The chunk fan-out per worker: enough chunks that an uneven trial mix
#: load-balances, few enough that per-chunk overhead stays negligible.
_CHUNKS_PER_WORKER = 4

#: In-flight chunk futures per map call: enough to keep every worker
#: busy through result consumption, bounded so a streaming consumer
#: never buffers an unbounded backlog of finished chunks.
_WINDOW_PER_WORKER = 3

# Fork-inherited worker state. parallel_map parks the trial function in
# _WORKER_FN before its one-shot pool forks; children see it by
# copy-on-write.
_WORKER_FN: Callable[[Any], Any] | None = None
_IN_WORKER = False


def resolve_max_workers(max_workers: int | None) -> int:
    """Turn the user-facing knob into an effective worker count.

    ``None`` defers to ``$REPRO_MAX_WORKERS`` (absent/empty → 1, the
    serial default); ``0`` or negative means "all cores". Inside a
    worker process the answer is always 1 — nested pools would
    oversubscribe and gain nothing.
    """
    if _IN_WORKER:
        return 1
    if max_workers is None:
        raw = os.environ.get(DEFAULT_WORKERS_ENV, "").strip()
        if not raw:
            return 1
        try:
            max_workers = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"${DEFAULT_WORKERS_ENV}={raw!r} is not an integer"
            ) from None
    if max_workers <= 0:
        return os.cpu_count() or 1
    return int(max_workers)


@dataclass(frozen=True)
class ParallelResult:
    """Outcome of one :func:`parallel_map` / :meth:`PersistentPool.map` call."""

    values: list[Any]
    workers: int
    n_chunks: int
    #: None when the pool ran; otherwise why execution fell back to serial.
    fallback_reason: str | None = None

    @property
    def parallel(self) -> bool:
        return self.fallback_reason is None and self.workers > 1


def _chunk_indices(n_items: int, workers: int, chunk_size: int | None) -> list[range]:
    """Contiguous index ranges covering ``range(n_items)`` in order."""
    if chunk_size is None:
        chunk_size = max(1, -(-n_items // (workers * _CHUNKS_PER_WORKER)))
    if chunk_size < 1:
        raise ConfigurationError("chunk_size must be at least 1")
    return [range(lo, min(lo + chunk_size, n_items)) for lo in range(0, n_items, chunk_size)]


class _PoolBroken(Exception):
    """Internal: the executor died; the caller should degrade to serial."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _is_picklable(fn: Callable[[Any], Any]) -> bool:
    """Can ``fn`` cross the pipe to an already-forked worker?"""
    try:
        pickle.dumps(fn)
        return True
    except Exception:  # noqa: BLE001  # milback: disable=ML004 — arbitrary __reduce__ failures all mean "no"
        return False


def _run_chunk(
    fn: Callable[[Any], Any] | None,
    payloads: Any,
    transport: str,
) -> tuple[Any, dict, list[dict], list[dict], float]:
    """Worker side: run one chunk and package results + obs delta.

    ``fn`` is ``None`` when the trial function was inherited at fork
    time through :data:`_WORKER_FN` instead of shipped by pickle.
    """
    global _IN_WORKER
    _IN_WORKER = True
    if fn is None:
        fn = _WORKER_FN
        if fn is None:  # pragma: no cover - indicates a non-fork pool misuse
            raise ConfigurationError("worker has no inherited trial function")
    if transport == "shm":
        # Mappings left over from earlier chunks on this worker can be
        # closed now that their trial views are dead; the parent already
        # unlinked those segments when it consumed the chunk results.
        shm.purge_attached()
        payloads = shm.unpack_views(payloads)
    # Fresh observation window: drop everything inherited from the
    # parent at fork time (or left by the previous chunk) so the
    # returned delta covers exactly this chunk.
    obs.reset()
    obs.get_tracer().detach_open_spans()
    t0 = time.perf_counter()
    result: Any = [fn(payload) for payload in payloads]
    if transport == "shm":
        result, result_arena = shm.pack(result)
        obs.counter("parallel.bytes_shipped", path="shm").inc(result.nbytes)
        if result_arena is not None:
            # Only close the mapping — the segment must outlive this
            # worker so the parent can copy out of it; the parent
            # unlinks it in shm.unpack_copies().
            result_arena.close()
    state = obs.get_registry().dump_state()
    spans = [s.to_dict() for s in obs.get_tracer().finished_spans()]
    events = [e.to_dict() for e in obs.get_tracer().events()]
    return result, state, spans, events, t0


def _noop(_: Any) -> None:
    """Warm-up task: forks the workers without doing any work."""
    return None


class PersistentPool:
    """A reusable forked worker pool with explicit lifecycle.

    Construct once, issue any number of :meth:`map` /
    :meth:`imap_chunks` calls, then :meth:`shutdown` (or use ``with``).
    Entering as a context manager additionally installs the pool as the
    process-wide routing target for :func:`parallel_map`: every call
    issued underneath (sweeps, campaigns, dataset generation) with a
    picklable function runs on the already-warm workers.
    """

    def __init__(self, max_workers: int | None = None, chunk_size: int | None = None) -> None:
        self.max_workers = resolve_max_workers(max_workers)
        self.chunk_size = chunk_size
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False
        self._previous_active: PersistentPool | None = None
        #: The function parked in _WORKER_FN before this pool forked
        #: (one-shot pools only); its chunks ship no function.
        self._inherited_fn: Callable[[Any], Any] | None = None
        atexit.register(self.shutdown)

    # --- lifecycle -------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_pids(self) -> list[int]:
        """PIDs of the live forked workers (empty before the first map)."""
        if self._pool is None:
            return []
        return list(self._pool._processes)  # noqa: SLF001 — stdlib keeps no public view

    def warm(self) -> "PersistentPool":
        """Fork the workers now so later maps pay no spin-up cost."""
        if self.max_workers > 1:
            self.map(_noop, list(range(self.max_workers)), chunk_size=1)
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers and release every pool resource (idempotent)."""
        pool, self._pool = self._pool, None
        already_closed, self._closed = self._closed, True
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)
            obs.counter("parallel.pool.shutdowns").inc()
        if not already_closed:
            atexit.unregister(self.shutdown)

    def __enter__(self) -> "PersistentPool":
        global _ACTIVE
        self._previous_active = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        if _ACTIVE is self:
            _ACTIVE = self._previous_active
        self._previous_active = None
        self.shutdown()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ConfigurationError("PersistentPool is shut down")
        if self._pool is None:
            if "fork" not in multiprocessing.get_all_start_methods():
                raise _PoolBroken("no-fork")
            # One resource tracker, spawned pre-fork, for every arena
            # either side creates over the pool's whole lifetime.
            shm.ensure_tracker()
            try:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=multiprocessing.get_context("fork"),
                )
            except (OSError, ValueError) as exc:
                raise _PoolBroken(type(exc).__name__) from exc
            obs.counter("parallel.pool.spawns").inc()
        else:
            obs.counter("parallel.pool.reuses").inc()
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a broken executor; the next map call forks a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        obs.counter("parallel.pool.breaks").inc()

    # --- execution -------------------------------------------------------------------

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunk_size: int | None = None,
    ) -> ParallelResult:
        """Run ``fn`` over ``items`` on this pool, preserving order.

        Ordered values, worker obs deltas merged, serial fallback on
        infrastructure failure. On a warm pool ``fn`` must be
        picklable; an unpicklable one runs in-process
        (``fallback_reason="unpicklable"``).
        """
        outcome: dict[str, Any] = {"workers": 1, "n_chunks": 0, "fallback_reason": None}
        values = [
            value
            for chunk in self._stream(fn, list(items), chunk_size, outcome)
            for value in chunk
        ]
        return ParallelResult(values=values, **outcome)

    def imap_chunks(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunk_size: int | None = None,
    ) -> Iterator[list[Any]]:
        """Yield ordered per-chunk value lists as chunks complete.

        The streaming interface behind :mod:`repro.datasets`: the
        consumer sees chunk results in item order while later chunks
        are still in flight, with at most ``3 × max_workers`` chunks
        in flight at once.
        """
        yield from self._stream(fn, list(items), chunk_size, {})

    def _stream(
        self,
        fn: Callable[[Any], Any],
        items: list[Any],
        chunk_size: int | None,
        outcome: dict[str, Any],
    ) -> Iterator[list[Any]]:
        """Ordered chunk values on the pool, else from the in-process loop.

        Fills ``outcome`` with the :class:`ParallelResult` fields other
        than the values. On a broken pool only the items not yet
        yielded rerun in-process — bit-identical, because their RNG
        streams (inside ``items``) were never advanced.
        """
        workers = self.max_workers
        done = 0
        if workers <= 1 or len(items) <= 1:
            # Intentional serial execution, not a degradation — no
            # fallback counter, so parallel.fallbacks only ever flags
            # real failures.
            reason = "serial"
        elif fn is not self._inherited_fn and not _is_picklable(fn):
            reason = "unpicklable"
        else:
            chunks = _chunk_indices(len(items), workers, chunk_size or self.chunk_size)
            try:
                for chunk_values in self._run_chunks(fn, items, chunks):
                    done += len(chunk_values)
                    yield chunk_values
                outcome.update(workers=min(workers, len(chunks)), n_chunks=len(chunks))
                return
            except _PoolBroken as exc:
                reason = exc.reason
        outcome["fallback_reason"] = reason
        if reason != "serial":
            obs.counter("parallel.fallbacks", reason=reason).inc()
        for i in range(done, len(items)):
            yield [fn(items[i])]
            stream.tick(done=i + 1, total=len(items), force=i + 1 == len(items))

    def _run_chunks(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        chunks: list[range],
    ) -> Iterator[list[Any]]:
        """Submit chunks through a bounded window; yield results in order.

        Raises :class:`_PoolBroken` (after cleaning up) when the pool
        infrastructure dies; trial exceptions propagate unchanged.
        """
        pool = self._ensure_pool()
        transport = shm.transport_mode()
        shipped_fn = None if fn is self._inherited_fn else fn
        workers = min(self.max_workers, len(chunks))
        obs.gauge("parallel.workers").set(workers)
        obs.counter("parallel.maps").inc()
        obs.counter("parallel.tasks").inc(len(items))
        obs.counter("parallel.chunks").inc(len(chunks))
        obs.counter("parallel.pool.chunks").inc(len(chunks))
        window = _WINDOW_PER_WORKER * self.max_workers
        # Item arenas still owned by the parent, keyed by chunk index.
        # Each is destroyed as its chunk result arrives; _sweep reclaims
        # the rest on any exit, so /dev/shm never leaks a segment.
        item_arenas: dict[int, Any] = {}
        pending: dict[int, tuple[Any, float]] = {}
        emitter = stream.get_emitter()
        next_submit = 0
        done_items = 0

        def _submit_next() -> None:
            nonlocal next_submit
            chunk_index = next_submit
            payload: Any = [items[i] for i in chunks[chunk_index]]
            if transport == "shm":
                payload, arena = shm.pack(payload)
                if arena is not None:
                    item_arenas[chunk_index] = arena
                obs.counter("parallel.bytes_shipped", path="shm").inc(payload.nbytes)
            # What actually crosses the pipe for this chunk: the raw
            # item list in pickle mode, the slotted remainder (RNG
            # streams, scalars) in shm mode.
            obs.counter("parallel.bytes_shipped", path="pickle").inc(
                len(pickle.dumps(payload))
            )
            future = pool.submit(_run_chunk, shipped_fn, payload, transport)
            pending[chunk_index] = (future, time.perf_counter())
            next_submit += 1

        def _sweep() -> None:
            for future, _ in pending.values():
                future.cancel()
            pending.clear()
            while item_arenas:
                _, leftover = item_arenas.popitem()
                shm.destroy(leftover)

        try:
            with obs.span("parallel.pool.map", tasks=len(items), workers=workers):
                for chunk_index in range(len(chunks)):
                    while next_submit < len(chunks) and len(pending) < window:
                        _submit_next()
                    future, dispatched = pending[chunk_index]
                    while True:
                        try:
                            # Bounded waits keep the heartbeat channel
                            # live while chunks are in flight; with
                            # heartbeats disabled this is a plain
                            # blocking result() and costs nothing.
                            chunk_values, state, spans, events, t0 = future.result(
                                timeout=emitter.interval_s if emitter else None
                            )
                            break
                        except FutureTimeoutError:
                            stream.tick(done=done_items, total=len(items))
                    del pending[chunk_index]
                    if transport == "shm":
                        chunk_values = shm.unpack_copies(chunk_values)
                        arena = item_arenas.pop(chunk_index, None)
                        if arena is not None:
                            shm.destroy(arena)
                    offset = dispatched - t0
                    obs.get_registry().merge_state(state)
                    obs.get_tracer().absorb_spans(spans, offset_s=offset)
                    obs.get_tracer().absorb_events(events, offset_s=offset)
                    done_items += len(chunk_values)
                    # Merged chunk deltas become visible in the next
                    # heartbeat's counter-delta section; the last chunk
                    # always beats so a 100% line closes the stream.
                    stream.tick(
                        done=done_items,
                        total=len(items),
                        force=done_items == len(items),
                    )
                    yield chunk_values
        except (BrokenProcessPool, OSError) as exc:
            # Workers died underneath us (OOM killer, container limits);
            # this executor is unusable, but the PersistentPool object
            # survives — the next call re-forks.
            self._discard_pool()
            raise _PoolBroken(type(exc).__name__) from exc
        except (KeyboardInterrupt, SystemExit):
            # The user is bailing out: reap the workers *now* so nothing
            # outlives the interrupt, then let it propagate.
            self.shutdown(wait=True)
            raise
        finally:
            _sweep()


# --- process-wide routing ----------------------------------------------------------

_ACTIVE: PersistentPool | None = None


def active_pool() -> PersistentPool | None:
    """The pool installed by ``with PersistentPool(...)``, if any."""
    if _ACTIVE is not None and _ACTIVE.closed:
        return None
    return _ACTIVE


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    max_workers: int | None = None,
    chunk_size: int | None = None,
) -> ParallelResult:
    """Run ``fn`` over ``items`` on a process pool, preserving order.

    Results come back in item order regardless of which worker finished
    first, worker obs metrics/spans are merged into the parent, and any
    infrastructure failure degrades to an in-process serial loop. A
    picklable ``fn`` rides the installed warm pool, if any; everything
    else — closures included — runs on a one-shot pool that inherits
    ``fn`` at fork time. ``items`` must be picklable (RNG generators
    are).
    """
    global _WORKER_FN
    workers = resolve_max_workers(max_workers)
    active = active_pool()
    if workers > 1 and active is not None and _is_picklable(fn):
        return active.map(fn, items, chunk_size=chunk_size)
    # The one-shot pool is never installed as the routing target, and it
    # forks lazily on its first chunk — after fn is parked in the slot.
    pool = PersistentPool(workers)
    pool._inherited_fn = fn
    previous, _WORKER_FN = _WORKER_FN, fn
    try:
        return pool.map(fn, items, chunk_size=chunk_size)
    finally:
        _WORKER_FN = previous
        pool.shutdown()
