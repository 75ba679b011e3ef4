"""The package surface: exported names, the README example, unused imports."""

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import swsc
from swsc.corpus import generate

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in swsc.__all__ if not hasattr(swsc, name)]
    assert missing == []


def test_no_module_imports_a_name_it_never_uses():
    # the stdlib stand-in for a linter's unused-import rule; __init__.py
    # imports to re-export, and a line marked "# noqa" is exempt
    unused = []
    for path in sorted(Path(swsc.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and "# noqa" not in lines[node.lineno - 1]):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    symbols = generate("zipf", sigma=4096, n=2000, seed=5).tolist()
    exec(compile(blocks[0], str(README), "exec"), {"symbols": symbols})


def _fresh_interpreter(code, cwd):
    """Run code in a new python that imports the swsc under test."""
    src = os.path.dirname(os.path.dirname(swsc.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    subprocess.run([sys.executable, "-c", textwrap.dedent(code)], check=True,
                   cwd=cwd, env=env)


def test_coding_never_imports_numpy(tmp_path):
    _fresh_interpreter("""
        import sys
        import swsc, swsc.cli
        assert 'numpy' not in sys.modules
        open('raw.bin', 'wb').write(bytes(range(200)) * 30)
        for argv in (['encode', 'raw.bin', 'p.swsc', '--sigma', '256'],
                     ['decode', 'p.swsc', 'out.bin'],
                     ['stats', 'raw.bin', '--sigma', '256']):
            assert swsc.cli.run(argv) == 0
        assert open('out.bin', 'rb').read() == open('raw.bin', 'rb').read()
        assert 'numpy' not in sys.modules
        assert 'swsc.vector' not in sys.modules
        """, tmp_path)


def test_encode_stream_with_numpy_loaded_never_steps(monkeypatch):
    # the block encoder codes the whole stream; the loop stays for the
    # stepping API, the decoder and a process without numpy
    p = swsc.derive_params(256, 1.0, 1)
    symbols = generate("zipf", sigma=256, n=5000, seed=3).tolist()
    state, writer = swsc.CoderState(p), swsc.BitWriter()
    want = state.encode_chunk(symbols, writer)
    payload = writer.finish()

    def no_steps(*args, **kwargs):
        raise AssertionError("CoderState._steps ran")

    monkeypatch.setattr(swsc.CoderState, "_steps", no_steps)
    for backend in ("trie", "hashed"):
        blob, report = swsc.encode_to_bytes(p, symbols, backend=backend)
        assert blob[swsc.coder.HEADER_BYTES:] == payload and report == want


def test_corpus_names_load_on_first_use(tmp_path):
    _fresh_interpreter("""
        import sys
        import swsc, swsc.cli
        assert swsc.DISTRIBUTIONS == ('uniform', 'zipf', 'markov')
        assert 'numpy' not in sys.modules
        from swsc import *
        assert 'numpy' in sys.modules
        assert generate('uniform', 16, 5, 1).tolist() == swsc.generate(
            'uniform', 16, 5, 1).tolist()
        assert len(splitmix64(1, 3)) == 3
        assert swsc.cli.run(['gen', 'c.bin', '--dist', 'zipf', '--sigma', '300',
                             '--n', '10']) == 0
        assert len(open('c.bin', 'rb').read()) == 20
        """, tmp_path)
