"""Results that do not depend on the machine: no BLAS kernel and no numpy
transcendental computes anything that reaches a report."""
from __future__ import annotations

import ast
import io
import json
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from test_sim import quick_config, room_a_doc, room_b_doc, trace_a_script, trace_b_script
from twinroom.sim import run

SRC = Path(__file__).resolve().parents[1] / "src"

_REPLAY = (
    "import sys\n"
    "from twinroom.sim import canonical_report_json, replay\n"
    "sys.stdout.write(canonical_report_json(replay(*sys.argv[1:4])))\n"
)


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_replay_matches_under_other_blas_kernels(coretype, tmp_path):
    # OPENBLAS_CORETYPE makes the replaying process pick another OpenBLAS
    # kernel, as a peer on another CPU would; it acts on that process only
    result = run(room_a_doc(), room_b_doc(), trace_a_script().build(), trace_b_script().build(),
                 config=quick_config())
    paths = [tmp_path / "session.jsonl", tmp_path / "a.json", tmp_path / "b.json"]
    paths[0].write_text(result.transcript)
    paths[1].write_text(json.dumps(room_a_doc()))
    paths[2].write_text(json.dumps(room_b_doc()))
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_CORETYPE=coretype, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _REPLAY, *map(str, paths)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == result.report_json


# numpy calls that run in a BLAS kernel or a CPU-dispatched libm loop
_BANNED_NUMPY = {"dot", "linalg", "matmul", "einsum", "exp", "exp2", "expm1", "sin", "cos", "tan", "sinh",
                 "cosh", "tanh", "arctan", "arctan2", "arccos", "arcsin", "log", "log1p", "log2", "log10",
                 "power", "float_power", "cbrt", "hypot"}


def banned_calls(source: str) -> list[str]:
    """Code (not strings or comments) that reaches for BLAS or a numpy
    transcendental: ``np.<banned>``, any ``.dot(`` and the ``@`` operator."""
    found = []
    sig = []  # significant tokens so far on this logical line
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
            sig = []
            continue
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.STRING):
            continue
        where = f"line {tok.start[0]}"
        if tok.type == tokenize.OP and tok.string in ("@", "@=") and sig:
            found.append(f"{where}: {tok.string} operator")
        if len(sig) >= 2 and sig[-1].string == "." and tok.type == tokenize.NAME:
            if sig[-2].string in ("np", "numpy") and tok.string in _BANNED_NUMPY:
                found.append(f"{where}: np.{tok.string}")
        if tok.string == "(" and len(sig) >= 2 and sig[-1].string == "dot" and sig[-2].string == ".":
            found.append(f"{where}: .dot(")
        sig.append(tok)
    return found


def test_source_scan_finds_each_banned_form():
    sample = (
        '"""np.dot(a, b) in a docstring is fine"""\n'
        "@dataclass  # a decorator is fine\n"
        "class A:\n"
        "    x = dot(a, b)  # the engine's own left-to-right dot\n"
        "a = np.dot(u, v)\n"
        "b = u.dot(v)\n"
        "c = numpy.linalg.norm(u)\n"
        "d = u @ v\n"
        "u @= v\n"
        "e = np.einsum('i,i', u, v) + np.matmul(u, v)\n"
        "f = np.exp(u) + np.sin(u) + np.arctan2(u, v) + np.hypot(u, v)\n"
        "g = np.exp2(u) + np.expm1(u) + np.log1p(u) + np.log2(u) + np.log10(u)\n"
        "h = np.power(u, 2) + np.float_power(u, 2) + np.sinh(u) + np.cosh(u) + np.tanh(u)\n"
        "k = np.arctan(u) + np.cbrt(u)\n"
        "m = np.sqrt(u) + np.fmod(u, v) + np.interp(u, v, w) + math.exp(1.0)\n"
    )
    assert [f.split(": ")[1] for f in banned_calls(sample)] == [
        "np.dot", ".dot(", ".dot(", "np.linalg", "@ operator", "@= operator", "np.einsum",
        "np.matmul", "np.exp", "np.sin", "np.arctan2", "np.hypot", "np.exp2", "np.expm1", "np.log1p",
        "np.log2", "np.log10", "np.power", "np.float_power", "np.sinh", "np.cosh", "np.tanh",
        "np.arctan", "np.cbrt",
    ]


def test_engine_source_calls_no_blas_and_no_numpy_transcendentals():
    files = sorted((SRC / "twinroom").glob("*.py"))
    assert files
    found = {f.name: banned_calls(f.read_text()) for f in files}
    assert {name: calls for name, calls in found.items() if calls} == {}


def hypot_names(source: str) -> list[str]:
    """Code (not strings or comments) that names ``hypot``, called or
    imported, from ``math`` or numpy."""
    return [f"line {tok.start[0]}: {tok.string}" for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.NAME and tok.string == "hypot"]


def test_hypot_scan_finds_each_use():
    sample = (
        '"""math.hypot in a docstring is fine"""\n'
        "a = math.hypot(dx, dz)  # math.hypot in a comment is fine\n"
        "b = np.hypot(dx, dz)\n"
        "from math import hypot\n"
        "c = math.sqrt(dx * dx + dz * dz)\n"
    )
    assert hypot_names(sample) == ["line 2: hypot", "line 3: hypot", "line 4: hypot"]


def test_placement_search_has_one_distance_formula():
    # every distance the search measures is sqrt(dx * dx + dz * dz), as
    # scene.objects_in_radius computes it, so one table serves the bound
    # and the score, and the features equal the scene's bit for bit
    assert hypot_names((SRC / "twinroom" / "placement.py").read_text()) == []


def feasibility_calls(source: str) -> list[tuple[str, str | None]]:
    """Each call of ``_standing_clear`` or ``_seated`` in code (not strings,
    comments or its own ``def``), as the name called and the top-level
    function or class it sits in (None at module level)."""
    found = []
    depth = 0
    top = None
    sig = []  # significant tokens so far on this logical line
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.INDENT:
            depth += 1
        elif tok.type == tokenize.DEDENT:
            depth -= 1
        elif tok.type == tokenize.NEWLINE:
            sig = []
        elif tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.STRING):
            if depth == 0 and not sig:
                top = None
            if depth == 0 and len(sig) == 1 and sig[0].string in ("def", "class"):
                top = tok.string
            if (tok.string == "(" and sig and sig[-1].string in ("_standing_clear", "_seated")
                    and (len(sig) < 2 or sig[-2].string != "def")):
                found.append((sig[-1].string, top))
            sig.append(tok)
    return found


def test_feasibility_scan_finds_each_call():
    sample = (
        '"""_seated(room, xs, zs) in a docstring is fine"""\n'
        "def _seated(room, xs, zs):  # a definition is not a call\n"
        "    return _standing_clear(rows)\n"
        "\n"
        "@decorator\n"
        "def _feasible_rows(room):\n"
        "    def inner():\n"
        "        return _seated(room, xs, zs)  # _seated( in a comment is fine\n"
        "    return _standing_clear(rows)\n"
        "x = _seated (room, xs, zs)\n"
        "class A:\n"
        "    def m(self):\n"
        "        return _standing_clear(rows)\n"
    )
    assert feasibility_calls(sample) == [
        ("_standing_clear", "_seated"), ("_seated", "_feasible_rows"), ("_standing_clear", "_feasible_rows"),
        ("_seated", None), ("_standing_clear", "A"),
    ]


def test_feasibility_has_one_implementation():
    # the grid, the swarm and `feasible` all decide feasibility through
    # `_feasible_rows`, so one rule says where an avatar can stand or sit
    found = [(f.name, name, where) for f in sorted((SRC / "twinroom").glob("*.py"))
             for name, where in feasibility_calls(f.read_text()) if where != "_feasible_rows"]
    assert found == []


_SCORER_METHODS = {"score", "score_batch", "score_bound"}


def scorer_lookups(source: str) -> list[str]:
    """Each ``getattr`` or ``hasattr`` call in code (not strings or
    comments) that looks up a scorer method: on an object whose expression
    names a scorer, or by a scorer method's name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr") and node.args):
            continue
        name = node.args[1] if len(node.args) > 1 else None
        if ("scorer" in ast.unparse(node.args[0])
                or isinstance(name, ast.Constant) and name.value in _SCORER_METHODS):
            found.append((node.lineno, node.func.id))
    return [f"line {line}: {called}" for line, called in sorted(found)]


def test_scorer_lookup_scan_finds_each_lookup():
    sample = (
        '"""getattr(scorer, "score_bound", None) in a docstring is fine"""\n'
        "def search(scorer, config):\n"
        '    bound = getattr(scorer, "score_bound", None)  # getattr(scorer in a comment is fine\n'
        '    if hasattr(self.scorer, "score_batch"):\n'
        "        pass\n"
        '    score = getattr(model, "score")\n'
        "    value = getattr(config, f.name)\n"
        '    table = getattr(self, "spatial")\n'
        "    return scorer.score_bound(target, rows, nearest)\n"
    )
    assert scorer_lookups(sample) == ["line 3: getattr", "line 4: hasattr", "line 6: getattr"]


def test_the_search_calls_every_scorer_method_unconditionally():
    # the grid calls `score_bound` and `score_batch` on every scorer, and the
    # swarm `score_batch`, so there is one search path, not one per scorer shape
    assert scorer_lookups((SRC / "twinroom" / "placement.py").read_text()) == []


def calls_in(source: str, function: str, method: str) -> list[int]:
    """The line of each call of ``method``, by name or as an attribute, in
    code (not strings or comments) inside the module-level function
    ``function``, its nested functions included."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef) and top.name == function:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    called = node.func
                    name = getattr(called, "attr", None) or getattr(called, "id", None)
                    if name == method:
                        found.append(node.lineno)
    return sorted(found)


def test_call_scan_finds_each_call_in_the_function():
    sample = (
        '"""scorer.score_bound(rows) in a docstring is fine"""\n'
        "def pso_refine(scorer):\n"
        "    def evaluate(points):\n"
        "        return scorer.score_bound(points)  # scorer.score_bound( in a comment is fine\n"
        "    bounds = score_bound(points)\n"
        "    return scorer.score_batch(points)\n"
        "def grid_search(scorer):\n"
        "    return scorer.score_bound(rows)\n"
        "class A:\n"
        "    def pso_refine(self):\n"
        "        return self.score_bound(rows)\n"
    )
    assert calls_in(sample, "pso_refine", "score_bound") == [4, 5]
    assert calls_in(sample, "grid_search", "score_bound") == [8]
    assert calls_in(sample, "grid_search", "score_batch") == []


def test_the_swarm_bounds_nothing():
    # the swarm scores every feasible particle of an iteration in one
    # `score_batch` call; `score_bound` is the grid's per-cell bound
    source = (SRC / "twinroom" / "placement.py").read_text()
    assert calls_in(source, "pso_refine", "score_bound") == []
    assert calls_in(source, "grid_search", "score_bound") != []


_FEATURE_BUILDERS = {"FeatureVector", "_candidate", "_tables"}


def feature_builds(source: str) -> list[str]:
    """Each call in code (not strings or comments) of ``FeatureVector``,
    ``_candidate`` or ``_tables``, by name or as an attribute, or of a
    ``__new__`` given one of them, outside ``extract_features``, with the
    top-level definition it is in."""
    found = []
    for top in ast.parse(source).body:
        if getattr(top, "name", None) == "extract_features":
            continue
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "__new__" and node.args and isinstance(node.args[0], ast.Name):
                name = node.args[0].id
            if name in _FEATURE_BUILDERS:
                found.append((node.lineno, node.col_offset, name, getattr(top, "name", "the module")))
    return [f"line {line}: {name} in {where}" for line, _, name, where in sorted(found)]


def test_feature_build_scan_finds_each_call():
    sample = (
        '"""FeatureVector(...) in a docstring is fine"""\n'
        "def extract_features(room) -> FeatureVector:\n"
        "    return FeatureVector(None, rows[0], _tables(a)[0], _tables(b)[0])\n"
        "class Scorer:\n"
        "    def score(self, fv: FeatureVector):  # FeatureVector( in a comment is fine\n"
        "        return isinstance(fv, FeatureVector) and placement.FeatureVector(*fv)\n"
        "def build(nearest):\n"
        "    return [_candidate(None, row, t, t) for t in _tables(nearest)], object.__new__(FeatureVector)\n"
    )
    assert feature_builds(sample) == [
        "line 6: FeatureVector in Scorer", "line 8: _candidate in build", "line 8: _tables in build",
        "line 8: FeatureVector in build",
    ]


def test_only_extract_features_builds_feature_vectors():
    # the search holds a batch of candidates as the arrays that `score_batch`
    # and `score_bound` take; only `extract_features` turns them into the
    # None-padded tuples of a FeatureVector, the form the wire carries
    assert feature_builds((SRC / "twinroom" / "placement.py").read_text()) == []


def test_only_the_document_reader_reads_files():
    # every room, trace, transcript and scorer config goes through one reader,
    # so each takes the same inline-or-path rule and the same read errors
    found = set()
    for f in sorted((SRC / "twinroom").glob("*.py")):
        for top in ast.parse(f.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in ("read_text", "exists"):
                    found.add((f.name, getattr(top, "name", None)))
    assert found == {("scene.py", "read_document")}


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads: each binding of an ``import``
    or a ``from ... import`` (``from __future__`` aside) that no name node in
    the module uses, an attribute chain's first name included."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_import_scan_finds_each_unused_name():
    sample = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "import json\n"
        "from .geometry import Transform, sub as minus, quat_rotate\n"
        "def f(a: Transform) -> None:\n"
        "    return np.zeros(3), os.path.join('a'), minus(a, a)\n"
    )
    assert unused_imports(sample) == ["line 4: json", "line 5: quat_rotate"]


def test_engine_modules_use_every_name_they_import():
    # the package's __init__ imports its public names to re-export them
    files = [f for f in sorted((SRC / "twinroom").glob("*.py")) if f.name != "__init__.py"]
    assert files
    found = {f.name: unused_imports(f.read_text()) for f in files}
    assert {name: names for name, names in found.items() if names} == {}


def unused_private_names(source: str) -> list[str]:
    """Module-level private names (``_x``; dunders and the bare ``_`` aside)
    that a module binds and never reads: each top-level ``def``, ``class`` or
    assignment target that no name node in the module loads. An attribute
    of the same name (``obj._x``) is not a use."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[name.id] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [
        f"line {line}: {name}" for name, line in bound.items()
        if name.startswith("_") and not name.startswith("__") and name != "_" and name not in used
    ]


def test_private_name_scan_finds_each_orphan():
    sample = (
        "_USED = 1\n"
        "_UNUSED, _ = 2, 3\n"
        "_DEFAULT: int = 4\n"
        "__all__ = ['f']\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _orphan():\n"
        "    return _helper()\n"
        "class _Gone:\n"
        "    _inner = 5\n"
        "def f(o, x=_DEFAULT):\n"
        "    return o._UNUSED, o._Gone\n"
    )
    assert unused_private_names(sample) == ["line 2: _UNUSED", "line 7: _orphan", "line 9: _Gone"]


def test_engine_modules_use_every_private_name_they_define():
    files = sorted((SRC / "twinroom").glob("*.py"))
    assert files
    found = {f.name: unused_private_names(f.read_text()) for f in files}
    assert {name: names for name, names in found.items() if names} == {}


_FEATURE_TUPLES = {"visual_attention", "spatial", "interpersonal"}
# the class itself, and the encoder that writes the wire form
_TUPLE_READERS = {("placement.py", "FeatureVector"), ("protocol.py", "encode_frame")}


def feature_tuple_reads(source: str) -> list[str]:
    """Each read in code (not strings or comments) of an attribute named
    ``visual_attention``, ``spatial`` or ``interpersonal``, a FeatureVector's
    wire form, with the top-level definition it is in. The scan matches the
    name whatever object it is read from: a later field of another class
    with one of these names is reported too, and needs another name."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in _FEATURE_TUPLES and isinstance(node.ctx, ast.Load):
                found.append((node.lineno, node.col_offset, node.attr, getattr(top, "name", "the module")))
    return [f"line {line}: .{attr} in {where}" for line, _, attr, where in sorted(found)]


def test_feature_tuple_scan_finds_each_read():
    sample = (
        '"""target.visual_attention in a docstring is fine"""\n'
        "class FeatureVector:\n"
        "    def __eq__(self, other):\n"
        "        return self.spatial == other.spatial  # self.interpersonal in a comment is fine\n"
        "def score(target, candidate):\n"
        "    return _term(target.interpersonal, candidate.visual_attention)\n"
        "class Scorer:\n"
        "    def score_batch(self, target):\n"
        "        return [getattr(target, 'spatial'), (lambda f: f.spatial)(target)]\n"
        "table = features.visual_attention + target.tables\n"
        "features.spatial = ()\n"
    )
    assert feature_tuple_reads(sample) == [
        "line 4: .spatial in FeatureVector", "line 4: .spatial in FeatureVector",
        "line 6: .interpersonal in score", "line 6: .visual_attention in score", "line 9: .spatial in Scorer",
        "line 10: .visual_attention in the module",
    ]


def test_no_engine_function_reads_the_feature_tuples():
    # every scorer reads a FeatureVector's array form, and the batch layout
    # holds every candidate, so no per-pair scorer over the tuples can return;
    # only the class and the wire encoder read them
    found = {f.name: [read for read in feature_tuple_reads(f.read_text())
                      if (f.name, read.rpartition(" in ")[2]) not in _TUPLE_READERS]
             for f in sorted((SRC / "twinroom").glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}


# public names nothing under src/, demos/ or perfbench/ uses, kept as test
# helpers (ROADMAP item 8)
_TEST_HELPERS = {"geometry.py: vec3", "geometry.py: quat_between", "geometry.py: Transform.compose"}


def public_definitions(source: str) -> list[tuple[str, str]]:
    """Each public function and class a module defines at its top level,
    and each public method of its classes, as (qualified name, name)."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                found += [(f"{node.name}.{m.name}", m.name) for m in node.body
                          if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef)) and not m.name.startswith("_")]
    return found


def names_read(source: str) -> set[str]:
    """Every name a module reads: a name or attribute it loads, a name it
    imports, and a string constant (``getattr`` and the tracer look names up
    by string). A definition does not read its own name, and a docstring that
    mentions a name among other words does not read it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unread_definitions(modules: dict[str, str], readers: list[str]) -> set[str]:
    """The public definitions of ``modules`` (file name to source) that no
    source in ``readers`` reads. The scan matches names, whatever scope or
    object they are read from, so it misses an orphan that shares its name
    with something read."""
    read = set().union(*map(names_read, readers))
    return {f"{file}: {qualified}" for file, source in modules.items()
            for qualified, name in public_definitions(source) if name not in read}


def test_unread_definition_scan_finds_each_orphan():
    module = (
        '"""helper and Box.grow are named here, which is no read"""\n'
        "import math\n"
        "def helper(x):\n"
        "    return math.sqrt(x)\n"
        "def orphan():\n"
        "    orphan = 1  # a store is no read\n"
        "def _private():\n"
        "    return helper(2)\n"
        "class Box:\n"
        "    def grow(self):\n"
        "        return Box()\n"
        "    def shrink(self):\n"
        "        pass\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "class Traced:\n"
        "    def run(self):\n"
        "        pass\n"
        "class Gone:\n"
        "    pass\n"
    )
    readers = [module, "from m import helper as h\nh(1).grow()\n", "WRAPPED = ('m', 'Traced')\nx.run\n"]
    assert unread_definitions({"m.py": module}, readers) == {
        "m.py: orphan", "m.py: Box.shrink", "m.py: Gone",
    }


def test_every_public_engine_definition_is_read():
    root = SRC.parent
    modules = {f.name: f.read_text() for f in sorted((SRC / "twinroom").glob("*.py"))}
    readers = [f.read_text() for f in (*sorted(SRC.rglob("*.py")), *sorted((root / "demos").rglob("*.py")),
                                       *sorted((root / "perfbench").glob("*.py")))]
    assert len(modules) > 1 and len(readers) > len(modules)
    assert unread_definitions(modules, readers) == _TEST_HELPERS
