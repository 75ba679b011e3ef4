"""Benchmark of the swsc coder: three corpora, end to end and per module.

Run from the root of the repository:

    python3 perfbench/run.py --workload zipf64k --seed 7 --seconds 30 --trace 0

--trace 0 times the public library API (both dictionary backends) and the
swsc CLI with nothing wrapped, and prints the end-to-end metrics. --trace 1
wraps the public methods of every swsc module from outside, records one span
per call, and prints the per-layer metrics instead. Every roundtrip is
checked; any failed check makes the command exit 1. Standard output ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}.

Load shape: a closed loop with one caller. One operation runs at a time, and
CLI children are started one after another, never two at once.
"""

import argparse
import gc
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402  (the benchmark's own modules, next to this file)
import yardstick  # noqa: E402

C = 10
HASH_SEED = 0
DEFAULT_SEED = 7  # the ROADMAP baseline seed
HELD_OUT_SEED = 1009  # never used while the benchmark was tuned
# n = 5 * ell, so the full-window steady state covers at least 80% of the steps
WINDOWS_PER_RUN = 5
SETUP_REPEATS = 7
STARTUP_REPEATS = 3
FLAG_OFFSET = 5  # the header's informational backend byte


@dataclass(frozen=True)
class Workload:
    dist: str
    sigma: int
    lam: float
    why: str


WORKLOADS = {
    "zipf64k": Workload(
        "zipf", 65536, 2.0,
        "the paper's headline regime: large alphabet, sublinear dictionary, a "
        "mix of literals and codewords; every module does some of the work"),
    "uniform64k": Workload(
        "uniform", 65536, 2.0,
        "all literals with dictionary churn (0.6 puts, 0.3 deletes per symbol); "
        "codebook and partial sums get zero calls; incompressible"),
    "zipf256-lam1": Workload(
        "zipf", 256, 1.0,
        "69% of symbols coded, the codebook and Fenwick workload; the "
        "dictionary holds at most 256 keys and almost never changes"),
}

# name -> unit; every end-to-end metric is lower-is-better
END_TO_END = {
    "setup_s": "s",
    "encode_us_per_sym": "us/sym",
    "decode_us_per_sym": "us/sym",
    "encode_us_per_sym_hashed": "us/sym",
    "decode_us_per_sym_hashed": "us/sym",
    "cli_roundtrip_us_per_sym": "us/sym",
    "cli_peak_rss_mb": "MB",
    "bits_per_sym": "bits/sym",
}


def _per_layer_units():
    units = {}
    for d, top, calls in (("enc", "encode_stream", ("codeword",)),
                          ("dec", "decode_stream", ("decode",))):
        units[f"{d}.coder.{top}.self_ns_per_sym"] = "ns/sym"
        fns = [("coder", "step_update")]
        fns += [(f"dictionary.{b}", f) for b in ("trie", "hashed")
                for f in ("get", "put", "delete")]
        fns += [("codebook", f) for f in ("insert", "remove", "move") + calls]
        fns += [("partial_sums", f) for f in
                (("add", "prefix") if d == "enc" else ("add", "search_with_prefix"))]
        fns += [("bitio", f) for f in
                (("write_bits",) if d == "enc" else ("peek_bits", "consume"))]
        for module, fn in fns:
            units[f"{d}.{module}.{fn}.calls_per_sym"] = "calls/sym"
            units[f"{d}.{module}.{fn}.self_ns_per_sym"] = "ns/sym"
        for module in ("dictionary.trie", "dictionary.hashed", "partial_sums", "bitio"):
            units[f"{d}.{module}.replay_ns_per_sym"] = "ns/sym"
    units.update({
        "coder.coded_frac": "frac",
        "coder.cost_units_per_sym": "units/sym",
        "coder.trie.state_model_bytes_max": "B",
        "coder.hashed.state_model_bytes_max": "B",
        "dictionary.trie.model_bytes_max": "B",
        "dictionary.hashed.model_bytes_max": "B",
        "dictionary.entries_max": "count",
        "codebook.size_max": "count",
        "partial_sums.touches_per_sym": "touches/sym",
        "partial_sums.touches_max_step": "touches",
        "partial_sums.touch_budget": "touches",
        "bitio.payload_bits_per_sym": "bits/sym",
        "cli.startup_s": "s",
        "cli.encode_peak_rss_mb": "MB",
        "cli.decode_peak_rss_mb": "MB",
        "corpus.generate_s": "s",
        "analysis.h0_bits_per_sym": "bits/sym",
        "analysis.excess_over_h0_bits_per_sym": "bits/sym",
        "analysis.bound_slack_per_sym": "bits/sym",
        "analysis.expansion_vs_raw": "ratio",
        "trace.overhead_ratio": "ratio",
        "trace.wrapper_ns": "ns",
        "trace.replay_loop_ns": "ns",
    })
    return units


PER_LAYER = _per_layer_units()


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


def outputs_match(got, want):
    """The comparison every roundtrip's output goes through."""
    return got == want


def import_swsc():
    """Import swsc from the checkout's src/, never from anywhere else."""
    if not (SRC / "swsc" / "__init__.py").is_file():
        raise ImportError(f"no swsc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import swsc
    if Path(swsc.__file__).resolve().parent != SRC / "swsc":
        raise ImportError(f"imported swsc from {swsc.__file__}, not from {SRC}")
    return swsc


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """The small process (spawn.py) that starts every child of the benchmark.

    Children are started one at a time; run() returns when the child has
    ended. Leaving the context closes the spawner and waits for it.
    """

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))],
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return False

    def run(self, argv, log_path):
        """Run one child; returns (wall s, its own peak RSS MB, its output)."""
        self.proc.stdin.write(json.dumps({"argv": argv, "log": str(log_path)}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        check(line, "the spawner process ended early")
        reply = json.loads(line)
        output = Path(log_path).read_bytes().decode(errors="replace")
        check(reply["exit"] == 0,
              f"{' '.join(argv[1:4])} exited {reply['exit']}: {output.strip()[-500:]}")
        return reply["wall_s"], reply["maxrss_kb"] / 1024.0, output


class Timing(NamedTuple):
    """A timed operation's wall seconds and the index of the yardstick pass before it."""

    seconds: float
    pace: int


class Bench:
    """One workload at one seed: its inputs, checks and timed operations."""

    def __init__(self, swsc, spawner, name, seed, tmp, n=None):
        self.swsc = swsc
        self.spawner = spawner
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.tmp = Path(tmp)
        self.n_override = n
        self.input_path = self.tmp / "input.raw"
        self.attempted = 0
        self.failed = 0
        self.yardstick_s = []

    def pace(self):
        """Time one yardstick pass; returns its index in yardstick_s."""
        gc.collect()
        self.yardstick_s.append(yardstick.run_once())
        gc.collect()
        return len(self.yardstick_s) - 1

    def timed(self, fn, *args, **kwargs):
        """Pace, then call fn; returns (its result, its Timing)."""
        i = self.pace()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, Timing(time.perf_counter() - t0, i)

    def scaled(self, timing):
        """timing's seconds at the yardstick's reference speed.

        The speed is taken from the yardstick passes just before and just
        after the operation.
        """
        y = self.yardstick_s[timing.pace:timing.pace + 2]
        return timing.seconds * yardstick.REFERENCE_S / statistics.fmean(y)

    # -- set-up -------------------------------------------------------------

    def child_import_s(self):
        """Seconds a fresh interpreter spends in `import swsc`."""
        code = ("import time; t = time.perf_counter(); import swsc; "
                "print(repr(time.perf_counter() - t))")
        _, _, out = self.spawner.run([sys.executable, "-c", code], self.tmp / "import.log")
        return float(out.strip().splitlines()[-1])

    def setup_once(self):
        """One set-up; returns (set-up seconds, corpus generation seconds)."""
        swsc, wl = self.swsc, self.wl
        import_s = self.child_import_s()
        t0 = time.perf_counter()
        params = swsc.derive_params(wl.sigma, wl.lam, C)
        n = self.n_override or WINDOWS_PER_RUN * params.ell
        t1 = time.perf_counter()
        arr = swsc.generate(wl.dist, wl.sigma, n, self.seed)
        t2 = time.perf_counter()
        symbols = arr.tolist()
        width = swsc.symbol_model_bytes(wl.sigma)
        self.input_path.write_bytes(arr.astype(f"<u{width}").tobytes())
        t3 = time.perf_counter()
        self.params, self.n, self.symbols = params, n, symbols
        return import_s + (t3 - t0), t2 - t1

    def setup(self):
        self.setup_timings = []
        generate_s = []
        for _ in range(SETUP_REPEATS):
            i = self.pace()
            setup_s, gen_s = self.setup_once()
            self.setup_timings.append(Timing(setup_s, i))
            generate_s.append(gen_s)
        self.generate_s = statistics.median(generate_s)
        p = self.params
        self.stats = self.swsc.EntropyStats.from_symbols(self.symbols)
        self.budget = 4 * (p.l_max + 1).bit_length() + p.l_max
        # the reference stream every roundtrip is compared against, untimed;
        # encoding it also lets lazy allocation settle before timing starts
        self.reference, _ = self.swsc.encode_to_bytes(p, self.symbols, backend="trie",
                                                      seed=HASH_SEED)

    # -- operations ---------------------------------------------------------

    def attempt(self, op, *args):
        """Run one roundtrip; a raised exception or failed check counts it failed."""
        self.attempted += 1
        try:
            return op(*args)
        except Exception:
            self.failed += 1
            print(f"perfbench: {self.name} seed {self.seed}: roundtrip failed",
                  file=sys.stderr)
            traceback.print_exc()
            return None

    def library_roundtrip(self, backend):
        """Encode to memory and decode back; returns the two Timings."""
        swsc = self.swsc
        out = io.BytesIO()
        enc_report, enc = self.timed(swsc.encode_stream, self.params, self.symbols, out,
                                     backend=backend, seed=HASH_SEED)
        blob = out.getvalue()
        (decoded, dec_report), dec = self.timed(swsc.decode_stream, blob,
                                                backend=backend, seed=HASH_SEED)
        self.check_roundtrip(backend, blob, decoded, enc_report, dec_report)
        return enc, dec

    def check_roundtrip(self, backend, blob, decoded, enc_report, dec_report):
        check(outputs_match(decoded, self.symbols), f"{backend}: decoded output differs")
        # the backend is recorded in one informational header byte; every
        # other byte must be the same whichever backend encoded
        ref = self.reference
        check(len(blob) == len(ref)
              and blob[:FLAG_OFFSET] == ref[:FLAG_OFFSET]
              and blob[FLAG_OFFSET + 1:] == ref[FLAG_OFFSET + 1:],
              f"{backend}: stream differs from the trie stream")
        bound = self.swsc.check_bound(enc_report, self.stats, self.params)
        check(bound.passed, f"{backend}: length bound failed (slack {bound.slack})")
        worst = max(enc_report.ps_touches_max_step, dec_report.ps_touches_max_step)
        check(worst <= self.budget, f"{backend}: {worst} touches in one step, "
                                    f"budget {self.budget}")

    def cli_roundtrip(self):
        """swsc encode then swsc decode over files; returns (enc, dec, enc RSS, dec RSS)."""
        p = self.params
        stream = self.tmp / "stream.swsc"
        output = self.tmp / "output.raw"
        cli = [sys.executable, "-m", "swsc"]
        i = self.pace()
        enc_s, enc_rss, _ = self.spawner.run(
            cli + ["encode", "--sigma", str(p.sigma), "--lambda", str(p.lam),
                   "--c", str(C), str(self.input_path), str(stream)],
            self.tmp / "encode.log")
        j = self.pace()
        dec_s, dec_rss, _ = self.spawner.run(cli + ["decode", str(stream), str(output)],
                                             self.tmp / "decode.log")
        check(outputs_match(output.read_bytes(), self.input_path.read_bytes()),
              "cli: decoded file differs from the input file")
        return Timing(enc_s, i), Timing(dec_s, j), enc_rss, dec_rss

    # -- the two kinds of run -----------------------------------------------

    def end_to_end(self, seconds):
        """Closed loop over library and CLI roundtrips until seconds have passed.

        Each time, set-up included, is scaled to the yardstick's reference
        speed, then the median over the repetitions is taken. RSS and bits
        per symbol are as measured.
        """
        timings = {name: [] for name, unit in END_TO_END.items() if unit == "us/sym"}
        rss = []
        deadline = time.perf_counter() + seconds
        ops = ("trie", "hashed", "cli")
        done = 0
        # the first round always completes, so every metric has a sample
        while done < len(ops) or time.perf_counter() < deadline:
            op = ops[done % len(ops)]
            done += 1
            if op == "cli":
                r = self.attempt(self.cli_roundtrip)
                if r is not None:
                    timings["cli_roundtrip_us_per_sym"].append(r[:2])
                    rss.append(max(r[2], r[3]))
            else:
                r = self.attempt(self.library_roundtrip, op)
                suffix = "_hashed" if op == "hashed" else ""
                if r is not None:
                    timings["encode_us_per_sym" + suffix].append(r[:1])
                    timings["decode_us_per_sym" + suffix].append(r[1:])
        self.pace()  # the pass after the last operation
        n = self.n
        metrics = {"setup_s": statistics.median(self.scaled(t) for t in self.setup_timings),
                   "bits_per_sym": 8 * len(self.reference) / n}
        if rss:
            metrics["cli_peak_rss_mb"] = statistics.median(rss)
        unscaled = {}
        for name, samples in timings.items():
            if samples:
                metrics[name] = statistics.median(
                    sum(self.scaled(t) for t in ts) / n * 1e6 for ts in samples)
                unscaled[name] = statistics.median(
                    sum(t.seconds for t in ts) / n * 1e6 for ts in samples)
        unscaled["setup_s"] = statistics.median(t.seconds for t in self.setup_timings)
        info = {"n": n, "roundtrips": done,
                "samples": {k: len(v) for k, v in timings.items()},
                "setup_samples": len(self.setup_timings),
                "yardstick_median_s": statistics.median(self.yardstick_s),
                "unscaled": {k: round(v, 4) for k, v in unscaled.items()}}
        return metrics, info

    def traced(self, seconds):
        """Untraced reference pass, traced pass, replays, CLI and analysis."""
        swsc, p, n = self.swsc, self.params, self.n
        deadline = time.perf_counter() + seconds
        m = {}
        untraced = {}
        for backend in ("trie", "hashed"):
            r = self.attempt(self.library_roundtrip, backend)
            if r is not None:
                untraced[backend] = r[0].seconds + r[1].seconds

        state_bytes = []

        def on_step(state):
            if state.position % p.ell == 0:
                state_bytes.append(swsc.memory_audit(state).total_bytes)

        tracer = tracing.Tracer(swsc, on_step=on_step)
        folded = {}
        recordings = {}
        traced_s = {}
        reports = {}
        with tracer:
            encode = tracer.wrap(swsc.encode_stream, "coder.encode_stream")
            decode = tracer.wrap(swsc.decode_stream, "coder.decode_stream")
            for backend in ("trie", "hashed"):
                del state_bytes[:]
                r = self.attempt(self.traced_roundtrip, tracer, backend, encode, decode,
                                 folded, recordings)
                if r is not None:
                    traced_s[backend], reports[backend] = r
                    m[f"coder.{backend}.state_model_bytes_max"] = max(
                        state_bytes, default=0)

        # coder, codebook, partial_sums and bitio spans come from the trie
        # pass (the CLI default); dictionary spans from each backend's pass
        for name in PER_LAYER:
            d, _, rest = name.partition(".")
            layer, _, what = rest.rpartition(".")
            spans = folded.get(("hashed" if ".hashed." in name else "trie", d))
            if spans is not None and what in ("calls_per_sym", "self_ns_per_sym"):
                calls, self_ns = spans.get(layer, (0, 0.0))
                m[name] = (calls if what == "calls_per_sym" else self_ns) / n

        replays = self.attempt(self.replays, recordings, deadline) or {"_rounds": 0}
        replay_rounds = replays.pop("_rounds")
        m.update(replays)

        r = self.attempt(self.cli_roundtrip)
        if r is not None:
            _, _, m["cli.encode_peak_rss_mb"], m["cli.decode_peak_rss_mb"] = r
        m["cli.startup_s"] = statistics.median(self.cli_startup_s()
                                               for _ in range(STARTUP_REPEATS))
        m["corpus.generate_s"] = self.generate_s

        if "trie" in reports:
            enc_report, dec_report = reports["trie"]
            bits = 8 * len(self.reference) / n
            bound = swsc.check_bound(enc_report, self.stats, p)
            m.update({
                "coder.coded_frac": enc_report.coded_count / n,
                "coder.cost_units_per_sym": enc_report.cost_units / n,
                "codebook.size_max": enc_report.max_code_size,
                "partial_sums.touches_per_sym": enc_report.ps_touches / n,
                "partial_sums.touches_max_step": max(enc_report.ps_touches_max_step,
                                                     dec_report.ps_touches_max_step),
                "partial_sums.touch_budget": self.budget,
                "bitio.payload_bits_per_sym": enc_report.payload_bits / n,
                "analysis.h0_bits_per_sym": self.stats.h0,
                "analysis.excess_over_h0_bits_per_sym": bits - self.stats.h0,
                "analysis.bound_slack_per_sym": bound.slack / n,
                "analysis.expansion_vs_raw":
                    bits / (8 * swsc.symbol_model_bytes(p.sigma)),
            })
        if untraced.keys() == traced_s.keys() == {"trie", "hashed"}:
            m["trace.overhead_ratio"] = sum(traced_s.values()) / sum(untraced.values())
        m["trace.wrapper_ns"] = wrapper_ns(swsc)
        m["trace.replay_loop_ns"] = replay_loop_ns()
        info = {"n": n, "replay_rounds": replay_rounds}
        return m, info

    def traced_roundtrip(self, tracer, backend, encode, decode, folded, recordings):
        """One traced encode and decode; spans and recordings go to folded/recordings."""
        out = io.BytesIO()
        gc.collect()
        tracer.begin()
        t0 = time.perf_counter()
        enc_report = encode(self.params, self.symbols, out, backend=backend, seed=HASH_SEED)
        enc_s = time.perf_counter() - t0
        folded[(backend, "enc")] = tracer.fold()
        recordings[(backend, "enc")] = tracer.take()
        blob = out.getvalue()
        gc.collect()
        tracer.begin()
        t0 = time.perf_counter()
        decoded, dec_report = decode(blob, backend=backend, seed=HASH_SEED)
        dec_s = time.perf_counter() - t0
        folded[(backend, "dec")] = tracer.fold()
        recordings[(backend, "dec")] = tracer.take()
        self.check_roundtrip(backend, blob, decoded, enc_report, dec_report)
        return enc_s + dec_s, (enc_report, dec_report)

    def replays(self, recordings, deadline):
        """Replay every recorded leaf sequence untraced, at least once, until deadline.

        The whole replay phase counts as one attempted operation.
        """
        swsc, p, n = self.swsc, self.params, self.n
        record = swsc.CodeRecord(1)
        payload = self.reference[swsc.coder.HEADER_BYTES:]
        samples = {}

        def dictionary(backend):
            return (swsc.TrieDictionary(p.sigma) if backend == "trie"
                    else swsc.HashedDictionary(p.sigma, seed=HASH_SEED))

        def one_round():
            for (backend, d), recs in recordings.items():
                rec = recs.get("dictionary")
                if rec is not None:
                    ns = tracing.replay_dictionary(dictionary(backend), rec, record)
                    samples.setdefault(f"{d}.dictionary.{backend}.replay_ns_per_sym",
                                       []).append(ns / n)
                if backend != "trie":
                    continue
                rec = recs.get("partial_sums")
                ns = 0 if rec is None else tracing.replay_partial_sums(
                    swsc.PartialSums(p.l_max + 1), rec)
                samples.setdefault(f"{d}.partial_sums.replay_ns_per_sym", []).append(ns / n)
                rec = recs["bitio"]
                if d == "enc":
                    writer = swsc.BitWriter()
                    ns = tracing.replay_writer(writer, rec)
                    check(writer.finish() == payload, "bitio: replayed payload differs")
                else:
                    ns = tracing.replay_reader(swsc.BitReader(payload), rec)
                samples.setdefault(f"{d}.bitio.replay_ns_per_sym", []).append(ns / n)

        rounds = 0
        while rounds == 0 or time.perf_counter() < deadline:
            one_round()
            rounds += 1
        out = {k: statistics.median(v) for k, v in samples.items()}
        for backend in ("trie", "hashed"):
            rec = recordings.get((backend, "enc"), {}).get("dictionary")
            if rec is not None:
                entries, model = tracing.dictionary_peaks(dictionary(backend), rec, record)
                out[f"dictionary.{backend}.model_bytes_max"] = model
                out["dictionary.entries_max"] = entries
        out["_rounds"] = rounds
        return out

    def cli_startup_s(self):
        p = self.params
        wall, _, _ = self.spawner.run([sys.executable, "-m", "swsc", "params", "--sigma",
                                str(p.sigma), "--lambda", str(p.lam), "--c", str(C)],
                               self.tmp / "params.log")
        return wall


def wrapper_ns(swsc, calls=200_000):
    """Added cost in ns of one traced call, measured on a wrapped no-op."""
    class Noop:
        def get(self, a):
            return None

    obj = Noop()
    plain = obj.get
    # wrapped like a dictionary get: a span plus the argument recording
    wrapped_fn = tracing.Tracer(swsc).wrap(Noop.get, "dictionary.trie.get")
    samples = []
    for _ in range(3):
        t0 = time.perf_counter_ns()
        for i in range(calls):
            plain(i)
        t1 = time.perf_counter_ns()
        for i in range(calls):
            wrapped_fn(obj, i)
        t2 = time.perf_counter_ns()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(samples)


def replay_loop_ns(calls=200_000):
    """Cost in ns of one replay iteration, measured against no-op methods."""
    class Noop:
        def get(self, a):
            return None
        put = delete = lambda self, *a: None

    rec = tracing.Recording()
    rec.ops.extend([0] * calls)
    rec.a.extend(range(calls))
    return statistics.median(tracing.replay_dictionary(Noop(), rec, None) / calls
                             for _ in range(3))


def emit(metrics, units, attempted, failed, info):
    """Print every metric with its unit, then the one-line JSON result."""
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {unit}")
        else:
            print(f"{name} = missing {unit}")
    print(f"ops_failed_frac = {failed / attempted:.6g} frac "
          f"({failed} of {attempted} roundtrips)")
    for key, value in info.items():
        print(f"# {key}: {value}")
    result = {
        "correct": failed == 0 and all(k in metrics for k in units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items() if k in metrics},
    }
    print(json.dumps(result))
    return result["correct"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"corpus seed (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="how long the timed loop runs (at least one round)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None,
                    help="corpus length (default 5*ell); only the benchmark's own "
                         "tests shrink it")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        swsc = import_swsc()
    except ImportError as e:
        print(f"perfbench: cannot import swsc: {e}", file=sys.stderr)
        return 2
    with (tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp,
          Spawner() as spawner):
        bench = Bench(swsc, spawner, args.workload, args.seed, tmp, n=args.n)
        try:
            bench.setup()
        except Exception:
            traceback.print_exc()
            return 2
        if args.trace:
            metrics, info = bench.traced(args.seconds)
            units = PER_LAYER
        else:
            metrics, info = bench.end_to_end(args.seconds)
            units = END_TO_END
    info = {"workload": args.workload, "seed": args.seed, **info}
    ok = emit(metrics, units, bench.attempted, bench.failed, info)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
