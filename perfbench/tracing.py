"""Per-layer tracing of the swsc modules from outside, and untraced replays.

The tracer patches the public methods of the swsc classes on the class
itself (never editing the source) with wrappers that record one span per
call: name, start, end and parent, in flat arrays kept in memory. After an
operation ends the spans are folded into calls and self time per name, where
self time is a span's duration minus the durations of its child spans.

Leaf calls cost 0.1-0.5 us, so a wrapper distorts their self time. The leaf
wrappers therefore also record their arguments, and the replay functions
below run each recorded sequence again, untraced, against a fresh instance.
"""

import time
from array import array

import numpy as np

# (span name prefix, swsc class, method) for every wrapped method. Dictionary
# spans carry the backend in their name, so both backends can be told apart.
WRAPPED = (
    ("coder", "CoderState", "step_update"),
    ("dictionary.trie", "TrieDictionary", "get"),
    ("dictionary.trie", "TrieDictionary", "put"),
    ("dictionary.trie", "TrieDictionary", "delete"),
    ("dictionary.hashed", "HashedDictionary", "get"),
    ("dictionary.hashed", "HashedDictionary", "put"),
    ("dictionary.hashed", "HashedDictionary", "delete"),
    ("codebook", "Codebook", "insert"),
    ("codebook", "Codebook", "remove"),
    ("codebook", "Codebook", "move"),
    ("codebook", "Codebook", "codeword"),
    ("codebook", "Codebook", "decode"),
    ("partial_sums", "PartialSums", "add"),
    ("partial_sums", "PartialSums", "prefix"),
    ("partial_sums", "PartialSums", "search_with_prefix"),
    ("bitio", "BitWriter", "write_bits"),
    ("bitio", "BitReader", "peek_bits"),
    ("bitio", "BitReader", "consume"),
)

# Leaf methods whose argument sequences are recorded for replay: the module
# recording they go to, the op code they are stored under, and whether the
# second argument is an int to keep (put's second argument is the record).
RECORDED = {
    "dictionary.trie.get": ("dictionary", 0, False),
    "dictionary.trie.put": ("dictionary", 1, False),
    "dictionary.trie.delete": ("dictionary", 2, False),
    "dictionary.hashed.get": ("dictionary", 0, False),
    "dictionary.hashed.put": ("dictionary", 1, False),
    "dictionary.hashed.delete": ("dictionary", 2, False),
    "partial_sums.add": ("partial_sums", 0, True),
    "partial_sums.prefix": ("partial_sums", 1, False),
    "partial_sums.search_with_prefix": ("partial_sums", 2, False),
    "bitio.write_bits": ("bitio", 0, True),
    "bitio.peek_bits": ("bitio", 0, False),
    "bitio.consume": ("bitio", 1, False),
}


class Recording:
    """One operation's argument sequence for one module: op codes plus two ints."""

    def __init__(self):
        self.ops = array("B")
        self.a = array("q")
        self.b = array("q")

class Tracer:
    """Span store plus the class patches that feed it.

    Use as a context manager: entering patches every method in WRAPPED,
    leaving restores the originals. begin() clears the spans and recordings
    for the next operation; fold() summarises them.
    """

    def __init__(self, swsc, on_step=None):
        self._swsc = swsc
        self._on_step = on_step  # called with the CoderState after each step
        self.names = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = [-1]
        self.recordings = {}
        self._saved = []

    def name_id(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            self.names.append(name)
            return len(self.names) - 1

    def begin(self):
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        del self._stack[1:]
        for rec in self.recordings.values():
            for arr in (rec.ops, rec.a, rec.b):
                del arr[:]

    def take(self):
        """Copies of the recordings since begin(), for replay after the operation."""
        taken = {}
        for module, rec in self.recordings.items():
            copy = Recording()
            copy.ops, copy.a, copy.b = rec.ops[:], rec.a[:], rec.b[:]
            taken[module] = copy
        return taken

    def wrap(self, fn, name):
        """fn wrapped so that each call records one span named name."""
        name_id = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter_ns
        recorded = RECORDED.get(name)
        # No try/finally: an exception aborts the whole traced operation, so
        # the spans of a failed call are never folded.
        if recorded is None:
            def wrapper(*args, **kwargs):
                sid = len(names)
                names.append(name_id)
                parents.append(stack[-1])
                ends.append(0)
                stack.append(sid)
                starts.append(clock())
                result = fn(*args, **kwargs)
                ends[sid] = clock()
                stack.pop()
                return result
            return wrapper
        module, code, pair = recorded
        rec = self.recordings.setdefault(module, Recording())
        ops, rec_a, rec_b = rec.ops, rec.a, rec.b

        def leaf_wrapper(obj, x, *rest):
            ops.append(code)
            rec_a.append(x)
            rec_b.append(rest[0] if pair else 0)
            sid = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            result = fn(obj, x, *rest)
            ends[sid] = clock()
            stack.pop()
            return result
        return leaf_wrapper

    def __enter__(self):
        for module, cls_name, method in WRAPPED:
            cls = getattr(self._swsc, cls_name)
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            wrapped = self.wrap(original, f"{module}.{method}")
            if method == "step_update" and self._on_step is not None:
                wrapped = self._with_step_hook(wrapped)
            setattr(cls, method, wrapped)
        return self

    def _with_step_hook(self, wrapped):
        on_step = self._on_step

        def step_update(state, *args):
            wrapped(state, *args)
            on_step(state)
        return step_update

    def __exit__(self, *exc):
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)
        return False

    def fold(self):
        """{span name: (calls, self ns)} over the spans since begin()."""
        names = np.frombuffer(self.span_name, dtype=np.uint16)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = (np.frombuffer(self.span_end, dtype=np.int64)
               - np.frombuffer(self.span_start, dtype=np.int64))
        self_ns = dur.copy()
        has_parent = parents >= 0
        np.subtract.at(self_ns, parents[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        totals = np.bincount(names, weights=self_ns, minlength=k)
        return {self.names[i]: (int(calls[i]), float(totals[i])) for i in range(k)}


def replay_dictionary(d, rec, record):
    """Replay get/put/delete on the fresh dictionary d; returns elapsed ns."""
    get, put, delete = d.get, d.put, d.delete
    t0 = time.perf_counter_ns()
    for op, key in zip(rec.ops, rec.a):
        if op == 0:
            get(key)
        elif op == 1:
            put(key, record)
        else:
            delete(key)
    return time.perf_counter_ns() - t0


def dictionary_peaks(d, rec, record):
    """Replay rec untimed on the fresh d; returns (max entries, max model bytes).

    Both only grow on a put, so sampling after each put finds the maxima.
    """
    entries = model = 0
    for op, key in zip(rec.ops, rec.a):
        if op == 0:
            d.get(key)
        elif op == 1:
            d.put(key, record)
            entries = max(entries, len(d))
            model = max(model, d.report_memory())
        else:
            d.delete(key)
    return entries, model


def replay_partial_sums(ps, rec):
    """Replay add/prefix/search_with_prefix on the fresh ps; returns elapsed ns."""
    add, prefix, search = ps.add, ps.prefix, ps.search_with_prefix
    t0 = time.perf_counter_ns()
    for op, x, y in zip(rec.ops, rec.a, rec.b):
        if op == 0:
            add(x, y)
        elif op == 1:
            prefix(x)
        else:
            search(x)
    return time.perf_counter_ns() - t0


def replay_writer(writer, rec):
    """Replay write_bits on the fresh writer; returns elapsed ns."""
    write = writer.write_bits
    t0 = time.perf_counter_ns()
    for value, count in zip(rec.a, rec.b):
        write(value, count)
    return time.perf_counter_ns() - t0


def replay_reader(reader, rec):
    """Replay peek_bits/consume on the fresh reader; returns elapsed ns."""
    peek, consume = reader.peek_bits, reader.consume
    t0 = time.perf_counter_ns()
    for op, count in zip(rec.ops, rec.a):
        if op == 0:
            peek(count)
        else:
            consume(count)
    return time.perf_counter_ns() - t0
