"""In-memory span recorder for the traced benchmark run.

A span is one call into a public function of a spikeislands module, timed
from the benchmark's side of the call: name, start, end, parent span, pass
id and process id, plus work counts taken from the call's arguments and
result after the call has returned.  Spans stay in memory and are written
out when the benchmark ends.

Calls the CLI makes internally are traced by swapping the names the ``cli``
module imported for recording wrappers (``Tracer.patched``).  ``cli sweep``
runs its jobs in forked worker processes, and a worker cannot hand its spans
back through the CLI: it appends each finished top-level span to a file
named after its process id, and the benchmark merges those files after the
sweep returns (``Tracer.collect``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from pathlib import Path


class Tracer:
    """Span recorder; when disabled, ``call`` adds nothing but a branch."""

    def __init__(self, enabled: bool, spill_dir: Path):
        self.enabled = enabled
        self.spill_dir = spill_dir
        self.spans: list[dict] = []
        self.pass_id: int | None = None
        self._pid = os.getpid()
        self._root_pid = os.getpid()
        self._forked = False
        self._stack: list[str] = []
        self._next = 0

    def call(self, name: str, fn, *args, counts=None, **kwargs):
        """Return ``fn(*args, **kwargs)``, recorded as span ``name``.

        ``counts(args, result)`` returns work counts to attach to the span;
        it runs after the end time is taken, so it is not part of the span.
        """
        if not self.enabled:
            return fn(*args, **kwargs)
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(sid, parent, name, start, time.perf_counter(), {"error": True})
            raise
        end = time.perf_counter()
        self._close(sid, parent, name, start, end, counts(args, result) if counts else {})
        return result

    @contextlib.contextmanager
    def patched(self, module, names: dict):
        """Replace ``module.<attr>`` by a recording wrapper, for attr -> (span name, counts)."""
        saved = {attr: getattr(module, attr) for attr in names}
        for attr, (span_name, counts) in names.items():
            setattr(module, attr, self._wrap(span_name, saved[attr], counts))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, counts=counts, **kwargs)

        return traced

    def collect(self) -> None:
        """Merge the spans that worker processes wrote to disk, then delete the files.

        Only the process that made the tracer merges; in a worker this does nothing.
        """
        if os.getpid() != self._root_pid or not self.spill_dir.is_dir():
            return
        for path in sorted(self.spill_dir.glob("*.jsonl")):
            with path.open(encoding="utf-8") as fh:
                self.spans.extend(json.loads(line) for line in fh if line.strip())
            path.unlink()

    def _open(self) -> tuple[str, str | None]:
        if os.getpid() != self._pid:
            # First span in a forked worker: the finished spans it inherited
            # belong to the parent; the open stack stays as their ancestry.
            self._pid = os.getpid()
            self._forked = True
            self.spans = []
            self._next = 0
        sid = f"{self._pid}:{self._next}"
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, extra) -> None:
        self._stack.pop()
        self.spans.append({"id": sid, "parent": parent, "name": name, "pass": self.pass_id,
                           "pid": self._pid, "start": start, "end": end, **extra})
        top_level_here = parent is None or not parent.startswith(f"{self._pid}:")
        if self._forked and top_level_here:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
            with (self.spill_dir / f"{self._pid}.jsonl").open("a", encoding="utf-8") as fh:
                fh.writelines(json.dumps(s) + "\n" for s in self.spans)
            self.spans = []


def covered(span: dict, children: list[dict]) -> float:
    """Length of the union of the children's intervals, clipped to ``span``."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted((max(c["start"], span["start"]), min(c["end"], span["end"])) for c in children):
        if e <= s:
            continue
        if cur_e is not None and s <= cur_e:
            cur_e = max(cur_e, e)
            continue
        if cur_e is not None:
            total += cur_e - cur_s
        cur_s, cur_e = s, e
    if cur_e is not None:
        total += cur_e - cur_s
    return total
