"""Spans recorded from outside the program, around calls into its layers.

A Recorder keeps every span in flat arrays (name, parent, start, end) in
memory; nothing is written while a traced call runs. `instrumented`
rebinds public callables to recording wrappers for the duration of one
`with` block and puts the originals back on exit, even on error, so code
outside the block never runs instrumented.

A span's self time is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter


class Recorder:
    """In-memory span store for one traced call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # (span name, args, result) of spans whose inputs and outputs are
        # read once the traced call has returned
        self.calls: list[tuple] = []
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """Append a finished span; returns its index."""
        self.name.append(self._name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span under the current one."""
        idx = self.add(name, 0.0, 0.0, self._stack[-1])
        self._stack.append(idx)
        self.start[idx] = perf_counter()
        try:
            yield idx
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, keep: bool):
        """A wrapper that records each call of fn as a span called name."""
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, calls = self._stack, self.calls

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if keep:
                calls.append((name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (summed duration, summed self time, span count)."""
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[str, list] = {}
        for i in range(len(self.start)):
            acc = out.setdefault(self.names[self.name[i]], [0.0, 0.0, 0])
            acc[0] += self.end[i] - self.start[i]
            acc[1] += selfs[i]
            acc[2] += 1
        return {k: (v[0], v[1], v[2]) for k, v in out.items()}

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,parent,start,end\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                    f"{self.start[i]!r},{self.end[i]!r}\n"
                )


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children are counted once.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(starts)):
        s, e = starts[i], ends[i]
        covered = 0.0
        reach = s
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo = max(starts[c], reach)
            hi = min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


@contextmanager
def instrumented(recorder: Recorder, targets):
    """Rebind each (owner, attribute, span name, keep) target to a wrapper.

    The originals are restored when the block exits.
    """
    saved = []
    try:
        for owner, attr, name, keep in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name, keep))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
