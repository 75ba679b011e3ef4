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


def test_no_private_name_is_left_unreferenced():
    # a module-level _name that no other statement in src/swsc reads is a
    # helper some deletion left behind; a def's own body does not count
    defined, read = [], set()
    for path in sorted(Path(swsc.__file__).parent.glob("*.py")):
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            where = (path.name, i)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(where, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    read.add((where, node.id))
                elif isinstance(node, ast.Attribute):
                    read.add((where, node.attr))
                elif isinstance(node, ast.alias):
                    read.add((where, node.name))
    orphans = [f"{where[0]}: {name}" for where, name in defined
               if not any(n == name and w != where for w, n in read)]
    assert orphans == []


def test_no_module_reads_another_modules_private_names():
    # a module's _names and an object's _attributes belong to their owner:
    # no relative import of a _name, and no obj._attr unless obj is self or cls
    reach = []
    for path in sorted(Path(swsc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute)
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id in ("self", "cls"))):
                names = [node.attr]
            else:
                continue
            reach += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.startswith("_") and not name.endswith("__")]
    assert reach == []


def test_only_make_report_builds_a_coder_report():
    # a coder passes n and its payload bits; make_report reads every other
    # field off the codebook, so no other function builds a report
    builds = []
    for path in sorted(Path(swsc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> its innermost function: ast.walk goes outside in
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for node in ast.walk(fn):
                    owner[node] = getattr(fn, "name", "<lambda>")
        builds += [f"{path.name}: {owner.get(node, '<module>')}"
                   for node in ast.walk(tree) if isinstance(node, ast.Call)
                   and "CoderReport" in (getattr(node.func, "id", None),
                                         getattr(node.func, "attr", None))]
    assert builds == ["coder.py: make_report"]


def test_only_the_codebook_stores_the_report_counters():
    # the codebook owns coded, max_step and the step start, and shares
    # touches with the partial sums; a coder credits them, never assigns them
    owners = {"coded": ["codebook.py"], "max_step": ["codebook.py"],
              "_step_start": ["codebook.py"], "touches": ["codebook.py", "partial_sums.py"]}
    stores = []
    for path in sorted(Path(swsc.__file__).parent.glob("*.py")):
        stores += [f"{path.name}:{node.lineno}: {node.attr}"
                   for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                   and path.name not in owners.get(node.attr, [path.name])]
    assert stores == []


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    symbols = generate("zipf", sigma=4096, n=2000, seed=5).tolist()
    exec(compile(blocks[0], str(README), "exec"), {"symbols": symbols})


def test_readme_layout_names_every_module():
    layout = README.read_text().split("## Layout", 1)[1]
    block = re.search(r"```\n(.*?)```", layout, re.S).group(1)
    named = set(re.findall(r"^\s+(\w+\.py)\s", block, re.M))
    modules = {path.name for path in Path(swsc.__file__).parent.glob("*.py")
               if not path.name.startswith("__")}
    assert modules - named == set()


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
                     ['encode', 'raw.bin', 'q.swsc', '--sigma', '256', '--verify-bound'],
                     ['stats', 'raw.bin', '--sigma', '256']):
            assert swsc.cli.run(argv) == 0
        assert open('out.bin', 'rb').read() == open('raw.bin', 'rb').read()
        assert open('q.swsc', 'rb').read() == open('p.swsc', 'rb').read()
        assert 'numpy' not in sys.modules
        assert 'swsc.vector' not in sys.modules
        """, tmp_path)


def test_a_cold_coding_child_loads_only_what_codes(tmp_path):
    # counted against what a bare interpreter loaded before the first import;
    # analysis, json and dataclasses (which brings inspect) load on first use
    _fresh_interpreter("""
        import sys
        bare = set(sys.modules)
        avoid = {'swsc.analysis', 'dataclasses', 'inspect', 'json', 'numpy'}
        loaded = lambda: sorted(avoid & (set(sys.modules) - bare))
        import swsc
        assert loaded() == [], loaded()
        import swsc.cli
        open('raw.bin', 'wb').write(bytes(range(200)) * 30)
        for argv in (['encode', 'raw.bin', 'p.swsc', '--sigma', '256'],
                     ['decode', 'p.swsc', 'out.bin']):
            assert swsc.cli.run(argv) == 0
        assert loaded() == [], loaded()
        assert swsc.analysis.check_bound is swsc.check_bound
        for argv in (['encode', 'raw.bin', 'q.swsc', '--sigma', '256', '--json'],
                     ['decode', 'q.swsc', 'out.bin', '--json'],
                     ['encode', 'raw.bin', 'q.swsc', '--sigma', '256', '--verify-bound'],
                     ['stats', 'raw.bin', '--sigma', '256'],
                     ['params', '--sigma', '256']):
            assert swsc.cli.run(argv) == 0
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


def test_decode_of_a_literal_stream_with_numpy_loaded_never_steps(monkeypatch):
    # no uniform symbol reaches the threshold, so with numpy loaded the
    # prefix's numpy kernels code the whole stream both ways, with no loop
    # step, no dictionary and none of the pure-Python kernels' field calls
    p = swsc.derive_params(65536, 2.0, 1)
    symbols = generate("uniform", sigma=65536, n=3 * p.ell, seed=3).tolist()
    writer = swsc.BitWriter()
    report = swsc.CoderState(p).encode_chunk(symbols, writer)
    payload = writer.finish()
    want = swsc.CoderState(p).decode_chunk(swsc.BitReader(payload), len(symbols))
    assert want == (symbols, report)

    def no_steps(*args, **kwargs):
        raise AssertionError("a loop step, a dictionary put or a pure-Python kernel ran")

    monkeypatch.setattr(swsc.CoderState, "_steps", no_steps)
    monkeypatch.setattr(swsc.TrieDictionary, "put", no_steps)
    monkeypatch.setattr(swsc.HashedDictionary, "put", no_steps)
    monkeypatch.setattr(swsc.coder, "read_fields", no_steps)
    monkeypatch.setattr(swsc.BitWriter, "write_fields", no_steps)
    blob, got = swsc.encode_to_bytes(p, symbols)
    assert blob[swsc.coder.HEADER_BYTES:] == payload and got == report
    for backend in ("trie", "hashed"):
        assert swsc.decode_stream(blob, backend=backend) == want


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
