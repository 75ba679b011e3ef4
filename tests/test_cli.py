"""Command-line interface: outputs, exit codes, file and stdio pipelines."""

import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import swsc
from swsc import coder, corpus
from swsc.bitio import BitWriter
from swsc.cli import run
from swsc.coder import HEADER_BYTES
from swsc.errors import CorruptStreamError
from test_coder import _numpy_hidden


def test_params_command_prints_derived_constants(capsys):
    assert run(["params", "--sigma", "256", "--lambda", "2", "--c", "10"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "sigma=256" in out
    assert "ell=1280" in out
    assert "threshold=80" in out
    assert "l_max=4" in out
    assert "width=8" in out
    assert "delta=2.528771" in out


def test_params_command_json(capsys):
    assert run(["params", "--sigma", "4096", "--lambda", "1.5", "--c", "2",
                "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"] == {"sigma": 4096, "lambda": 1.5, "c": 2,
                             "ell": 6144, "threshold": 24, "l_max": 8,
                             "width": 12}


def test_gen_writes_the_library_bytes(tmp_path):
    out = tmp_path / "corpus.bin"
    assert run(["gen", str(out), "--dist", "zipf", "--sigma", "4096",
                "--n", "500", "--seed", "9", "--s", "1.5"]) == 0
    want = corpus.gen_zipf(4096, 500, s=1.5, seed=9).astype("<u2").tobytes()
    assert out.read_bytes() == want


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    args = ["--dist", "markov", "--sigma", "64", "--n", "400", "--seed", "3"]
    assert run(["gen", str(a)] + args) == 0
    assert run(["gen", str(b)] + args) == 0
    assert a.read_bytes() == b.read_bytes()


def test_encode_decode_file_roundtrip(tmp_path, capsys):
    raw = tmp_path / "raw.bin"
    packed = tmp_path / "packed.swsc"
    restored = tmp_path / "restored.bin"
    assert run(["gen", str(raw), "--dist", "uniform", "--sigma", "300",
                "--n", "400", "--seed", "5"]) == 0
    assert run(["encode", str(raw), str(packed), "--sigma", "300"]) == 0
    err = capsys.readouterr().err
    assert "n=400" in err
    assert "payload_bits=" in err
    assert packed.stat().st_size > HEADER_BYTES
    assert run(["decode", str(packed), str(restored)]) == 0
    assert restored.read_bytes() == raw.read_bytes()


def test_encode_report_json(tmp_path, capsys):
    raw = tmp_path / "raw.bin"
    packed = tmp_path / "packed.swsc"
    run(["gen", str(raw), "--dist", "zipf", "--sigma", "256", "--n", "3000",
         "--seed", "1"])
    capsys.readouterr()
    assert run(["encode", str(raw), str(packed), "--sigma", "256",
                "--verify-bound", "--json"]) == 0
    doc = json.loads(capsys.readouterr().err)
    assert doc["command"] == "encode"
    assert doc["report"]["n"] == 3000
    assert doc["bound"]["passed"] is True
    assert doc["stats"]["n"] == 3000


def test_encode_has_no_backend_option(tmp_path):
    raw = tmp_path / "raw.bin"
    raw.write_bytes(coder.write_symbols([1, 2, 3], 256))
    for backend in ("trie", "hashed"):
        with pytest.raises(SystemExit) as exc:
            run(["encode", str(raw), str(tmp_path / "p.swsc"), "--sigma", "256",
                 "--backend", backend])
        assert exc.value.code == 2


@pytest.mark.parametrize("sigma, lam, ran", [(256, 2.0, "trie"), (70000, 3.0, "hashed")])
def test_decode_reports_the_dictionary_that_ran(tmp_path, capsys, sigma, lam, ran):
    p = swsc.derive_params(sigma, lam, 10)
    syms = [0, sigma - 1, 5] * 20
    blob = swsc.encode_to_bytes(p, syms)[0]
    for flag in (0, 1):  # the header's backend byte is not followed
        packed = tmp_path / f"{flag}.swsc"
        packed.write_bytes(blob[:5] + bytes([flag]) + blob[6:])
        capsys.readouterr()
        assert run(["decode", str(packed), str(tmp_path / "out.bin"), "--json"]) == 0
        assert json.loads(capsys.readouterr().err)["backend"] == ran


def test_verify_bound_text_line(tmp_path, capsys):
    raw = tmp_path / "raw.bin"
    packed = tmp_path / "p.swsc"
    run(["gen", str(raw), "--dist", "zipf", "--sigma", "256", "--n", "3000",
         "--seed", "2"])
    capsys.readouterr()
    assert run(["encode", str(raw), str(packed), "--sigma", "256",
                "--verify-bound"]) == 0
    assert "bound_check=PASS" in capsys.readouterr().err


def test_a_failed_bound_check_exits_one(tmp_path, capsys, monkeypatch):
    real = swsc.analysis.check_bound

    def failing(*args):
        report = real(*args)
        report.passed = False
        return report

    monkeypatch.setattr(swsc.analysis, "check_bound", failing)
    raw = tmp_path / "raw.bin"
    run(["gen", str(raw), "--dist", "zipf", "--sigma", "256", "--n", "3000",
         "--seed", "2"])
    capsys.readouterr()
    assert run(["encode", str(raw), str(tmp_path / "p.swsc"), "--sigma", "256",
                "--verify-bound"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == "bound_check=FAIL"


def test_text_report_renders_the_json_report(tmp_path, capsys):
    raw = tmp_path / "raw.bin"
    packed = tmp_path / "p.swsc"
    run(["gen", str(raw), "--dist", "zipf", "--sigma", "4096", "--n", "5000",
         "--seed", "4"])
    capsys.readouterr()
    args = ["encode", str(raw), str(packed), "--sigma", "4096", "--verify-bound"]
    assert run(args) == 0
    text = capsys.readouterr().err.splitlines()
    assert run(args + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().err)
    want = [f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}"
            for section in ("report", "stats", "bound")
            for k, v in doc[section].items() if v is not None]
    assert text == want + ["bound_check=PASS"]
    assert run(["decode", str(packed), str(tmp_path / "out.bin"), "--json"]) == 0
    decoded_doc = json.loads(capsys.readouterr().err)
    decoded = decoded_doc["report"]
    for key in ("payload_bits", "payload_bytes", "literal_count", "coded_count",
                "max_code_size", "cost_units"):
        assert decoded[key] == doc["report"][key]
    # the documents' key order is the report's field order and the params'
    report_keys = ["n", "payload_bits", "payload_bytes", "literal_count", "coded_count",
                   "max_code_size", "ps_touches", "ps_touches_max_step", "cost_units"]
    params_keys = ["sigma", "lambda", "c", "ell", "threshold", "l_max", "width"]
    assert [(list(d["report"]), list(d["params"])) for d in (doc, decoded_doc)] == [
        (report_keys, params_keys)] * 2


def test_stats_command(tmp_path, capsys):
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes([0, 0, 0, 1]))
    assert run(["stats", str(raw), "--sigma", "256"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "n=4" in out
    assert "distinct=2" in out
    assert "h0=0.811278" in out


def test_stats_json(tmp_path, capsys):
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes(range(16)))
    assert run(["stats", str(raw), "--sigma", "16", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"]["n"] == 16
    assert doc["stats"]["h0"] == pytest.approx(4.0)


def test_decode_contradicting_sigma_fails(tmp_path, capsys):
    raw = tmp_path / "raw.bin"
    packed = tmp_path / "p.swsc"
    run(["gen", str(raw), "--dist", "uniform", "--sigma", "64", "--n", "50"])
    run(["encode", str(raw), str(packed), "--sigma", "64"])
    capsys.readouterr()
    assert run(["decode", str(packed), "-", "--sigma", "128"]) == 5
    assert "contradicts" in capsys.readouterr().err
    assert run(["decode", str(packed), str(tmp_path / "out.bin"),
                "--sigma", "64", "--lambda", "2", "--c", "10"]) == 0


def test_exit_code_for_missing_input():
    assert run(["encode", "/nonexistent/path.bin", "-", "--sigma", "64"]) == 3


def test_exit_code_for_corrupt_stream(tmp_path, capsys):
    bad = tmp_path / "bad.swsc"
    bad.write_bytes(b"not a stream at all, nowhere near long enough")
    assert run(["decode", str(bad), "-"]) == 4
    assert "corrupt stream" in capsys.readouterr().err


def test_exit_code_for_sigma_past_the_header_limit(tmp_path, capsys):
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes(8))
    assert run(["encode", str(raw), str(tmp_path / "p.swsc"),
                "--sigma", str(2**32)]) == 5
    assert "exceeds the stream limit" in capsys.readouterr().err
    out = tmp_path / "corpus.bin"
    assert run(["gen", str(out), "--dist", "uniform", "--sigma", str(2**40),
                "--n", "10"]) == 5
    assert "exceeds the stream limit" in capsys.readouterr().err
    assert not out.exists()


def test_gen_zipf_past_its_sigma_cap_exits_five(tmp_path, capsys):
    out = tmp_path / "corpus.bin"
    assert run(["gen", str(out), "--dist", "zipf", "--sigma", "4294967295",
                "--n", "10"]) == 5
    assert "zipf needs sigma" in capsys.readouterr().err
    assert not out.exists()


def test_gen_zipf_with_a_nan_exponent_exits_five(tmp_path, capsys):
    out = tmp_path / "corpus.bin"
    assert run(["gen", str(out), "--dist", "zipf", "--sigma", "256", "--n", "10",
                "--s", "nan"]) == 5
    assert "zipf exponent" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_for_symbol_out_of_range(tmp_path, capsys):
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes([200]))
    assert run(["encode", str(raw), "-", "--sigma", "100"]) == 5
    assert "parameter error" in capsys.readouterr().err


def test_exit_code_for_too_narrow_symbol_bytes(tmp_path):
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes(4))
    assert run(["encode", str(raw), "-", "--sigma", "300",
                "--symbol-bytes", "1"]) == 5


def test_exit_code_for_misaligned_raw_length(tmp_path):
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes(3))  # sigma 300 needs 2-byte symbols
    assert run(["encode", str(raw), "-", "--sigma", "300"]) == 5


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["encode", "--sigma"])
    assert exc.value.code == 2


def test_wider_symbol_bytes_accepted(tmp_path):
    raw = tmp_path / "raw.bin"
    out = tmp_path / "out.bin"
    packed = tmp_path / "p.swsc"
    run(["gen", str(raw), "--dist", "uniform", "--sigma", "100", "--n", "64",
         "--symbol-bytes", "4"])
    assert run(["encode", str(raw), str(packed), "--sigma", "100",
                "--symbol-bytes", "4"]) == 0
    assert run(["decode", str(packed), str(out), "--symbol-bytes", "4"]) == 0
    assert out.read_bytes() == raw.read_bytes()


def test_stdio_pipeline_roundtrip():
    base = [sys.executable, "-m", "swsc"]
    # the children import the swsc under test, installed or not
    src = os.path.dirname(os.path.dirname(swsc.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    gen = subprocess.run(
        base + ["gen", "--dist", "zipf", "--sigma", "1000", "--n", "2000",
                "--seed", "77"],
        capture_output=True, check=True, env=env)
    raw = gen.stdout
    assert len(raw) == 4000
    enc = subprocess.run(base + ["encode", "--sigma", "1000"], input=raw,
                         capture_output=True, check=True, env=env)
    assert b"payload_bits=" in enc.stderr
    dec = subprocess.run(base + ["decode"], input=enc.stdout,
                         capture_output=True, check=True, env=env)
    assert dec.stdout == raw


def _multi_chunk_case():
    """A zipf input longer than two coding chunks, whose edges miss ell's multiples."""
    p = swsc.derive_params(256, 2.0, 10)
    assert coder._CHUNK % p.ell
    n = 2 * coder._CHUNK + p.ell // 3
    return p, corpus.generate("zipf", 256, n, seed=8).tolist()


def test_cli_codes_an_input_of_several_chunks(tmp_path, capsys):
    p, syms = _multi_chunk_case()
    raw, packed, restored = (tmp_path / f for f in ("raw.bin", "p.swsc", "out.bin"))
    raw.write_bytes(coder.write_symbols(syms, 256))
    assert run(["encode", str(raw), str(packed), "--sigma", "256"]) == 0
    # one unchunked call gives the payload the chunked paths must reproduce
    header = io.BytesIO()
    coder.write_header(header, p, len(syms))
    writer = BitWriter()
    swsc.CoderState(p).encode_chunk(syms, writer)
    want = header.getvalue() + writer.finish()
    assert packed.read_bytes() == want == swsc.encode_to_bytes(p, syms)[0]
    assert swsc.decode_stream(want)[0] == syms
    capsys.readouterr()
    assert run(["decode", str(packed), str(restored), "--json"]) == 0
    assert json.loads(capsys.readouterr().err)["report"]["n"] == len(syms)
    assert restored.read_bytes() == raw.read_bytes()


def test_cli_decode_of_a_stream_cut_mid_way_writes_nothing(tmp_path, capsysbinary):
    p, syms = _multi_chunk_case()
    blob, _ = swsc.encode_to_bytes(p, syms)
    cut = blob[:HEADER_BYTES + 2 * (len(blob) - HEADER_BYTES) // 3]
    chunks = iter(coder.Decoder(cut))
    next(chunks)  # the first chunk still decodes: the cut is past it
    with pytest.raises(CorruptStreamError, match="truncated"):
        list(chunks)
    whole, bad, out = tmp_path / "whole.swsc", tmp_path / "cut.swsc", tmp_path / "out.bin"
    whole.write_bytes(blob)
    bad.write_bytes(cut)
    assert run(["decode", str(whole), "-"]) == 0  # stdout is captured
    assert capsysbinary.readouterr().out == coder.write_symbols(syms, 256)
    assert run(["decode", str(bad), str(out)]) == 4
    assert sorted(os.listdir(tmp_path)) == ["cut.swsc", "whole.swsc"]  # no temporary file
    assert run(["decode", str(bad), "-"]) == 4
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert b"truncated" in captured.err


def test_a_failed_encode_leaves_neither_output_nor_temporary_file(tmp_path, capsys):
    # the only out-of-range symbol sits in the last chunk, after the others coded
    syms = corpus.generate("uniform", 200, 2 * coder._CHUNK + 100, seed=3).tolist()
    syms[-1] = 250
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes(syms))
    assert run(["encode", str(raw), str(tmp_path / "p.swsc"), "--sigma", "200"]) == 5
    err = capsys.readouterr().err
    assert f"symbol 250 at position {2 * coder._CHUNK + 99} out of range" in err
    assert os.listdir(tmp_path) == ["raw.bin"]


@pytest.mark.parametrize("command", ["encode", "stats"])
def test_cli_names_the_first_bad_symbol_and_its_position(tmp_path, capsys, command):
    # the largest symbol, 255, is not the first out of range; both sit in the third chunk
    raw = tmp_path / "raw.bin"
    raw.write_bytes(bytes([1] * 40000 + [201, 255, 3]))
    out = [str(tmp_path / "p.swsc")] if command == "encode" else []
    assert run([command, str(raw)] + out + ["--sigma", "200"]) == 5
    assert ("swsc: parameter error: symbol 201 at position 40000 out of range for sigma 200"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["encode", "decode"])
def test_cli_memory_does_not_grow_with_n(tmp_path, capsys, command):
    # file to file in process, with numpy hidden as in a CLI process: the
    # tracemalloc peak at ell + 12 chunks is within 512 KB of the one at
    # ell + 2, although the input grows by 10 chunks of 2-byte symbols
    p = swsc.derive_params(65536, 2.0, 1)  # ell 4096, all literals
    knobs = ["--sigma", "65536", "--lambda", "2", "--c", "1"]
    peaks = []
    for chunks in (2, 12):
        syms = corpus.generate("uniform", 65536, p.ell + chunks * coder._CHUNK, seed=chunks)
        raw, packed, out = (tmp_path / f"{chunks}.{ext}" for ext in ("raw", "swsc", "out"))
        raw.write_bytes(coder.write_symbols(syms, 65536))
        packed.write_bytes(swsc.encode_to_bytes(p, syms)[0])
        source, want = (raw, packed) if command == "encode" else (packed, raw)
        argv = [command, str(source), str(out)] + (knobs if command == "encode" else [])
        with _numpy_hidden():
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                assert run(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert out.read_bytes() == want.read_bytes()
    assert peaks[1] - peaks[0] < 512 << 10, peaks
