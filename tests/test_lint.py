"""Source rules for the package: invariants raise real exceptions, scalar
field arithmetic stays inside the field module, the byte <-> symbol codec
lives in the sharing module, sessions are built in one place, randomness
comes from NumPy's Mersenne Twister as raw words in bounded calls, the
G-array is read by user, pairs map to rows in one place, only the
association orders a profile by load, the secrecy verdicts read no
payload and build no dense model, the package never imports the tests'
oracles, and every function it defines has a caller in the program."""

import ast
from pathlib import Path

import seccache

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seccache"
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def package_nodes():
    """(file name, node) for every AST node of the package's modules."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    return [
        (path.name, node)
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
    ]


def test_package_has_no_assert_statements():
    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if isinstance(node, ast.Assert)]
    assert not found, f"python -O drops these checks: {found}"


def raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_raises_no_assertion_error():
    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if raises_assertion_error(node)]
    assert not found, f"invariants raise RuntimeError, not AssertionError: {found}"


SCALAR_FIELD_OPS = {"mul", "inv", "pow"}


def test_scalar_field_ops_stay_in_field():
    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if name != "field.py" and isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in SCALAR_FIELD_OPS]
    assert not found, f"field arrays go through the exp/log tables: {found}"


def calls_named(nodes, name):
    """Locations of calls of a plain name or an attribute with that name."""
    return [f"{file}:{node.lineno}" for file, node in nodes
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


def test_sessions_are_built_in_one_place():
    nodes = package_nodes()
    built = calls_named(nodes, "SessionState")
    assert len(built) == 1, f"every scheme shares one session constructor: {built}"
    derived = calls_named([(f, n) for f, n in nodes if f == "cli.py"], "run_session")
    assert len(derived) == 1, f"simulate and verify derive sessions alike: {derived}"


def test_bit_packing_stays_in_the_codec():
    nodes = [(f, n) for f, n in package_nodes() if f != "sharing.py"]
    found = calls_named(nodes, "packbits") + calls_named(nodes, "unpackbits")
    assert not found, f"bytes become symbols only in sharing's codec: {found}"


def imports_of(nodes, top):
    """Locations of absolute imports of module `top` or its submodules."""
    return [f"{file}:{node.lineno}" for file, node in nodes
            if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == top for alias in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == top]


def test_randomness_comes_from_numpy_streams():
    nodes = package_nodes()
    found = imports_of(nodes, "random") + calls_named(nodes, "getrandbits")
    assert not found, f"draws go through scheme.mersenne_twister streams: {found}"


def calls_outside(name, callers):
    """Calls of `name` anywhere but inside the functions `callers`, a set
    of (file name, function name)."""
    allowed = [
        location
        for path in sorted(PACKAGE.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(func, ast.FunctionDef) and (path.name, func.name) in callers
        for location in calls_named([(path.name, node) for node in ast.walk(func)], name)
    ]
    return sorted(set(calls_named(package_nodes(), name)) - set(allowed))


RAW_WORD_DRAWERS = {("sharing.py", "random_vector"), ("scheme.py", "synthetic_library")}


def test_raw_words_are_drawn_only_in_bounded_calls():
    """random_words is called only inside the two functions that cut a long
    draw into calls of at most WORDS_PER_CALL words.  A call reads its words
    from MT19937.random_raw, one to a uint64, so no draw holds a temporary
    of more than 8 * WORDS_PER_CALL bytes, 2 MiB."""
    stray = calls_outside("random_words", RAW_WORD_DRAWERS)
    assert not stray, f"draws of raw words go through random_vector: {stray}"


def test_the_twister_is_read_raw_in_one_place():
    """Words come from the bit generator's random_raw inside random_words
    alone, and no RandomState draw (randint) is left in the package."""
    stray = calls_outside("random_raw", {("sharing.py", "random_words")})
    assert not stray, f"raw twister words are read only by random_words: {stray}"
    found = [f"{path.name}:{n}" for path in sorted(PACKAGE.glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), start=1)
             if "randint" in line]
    assert not found, f"draws read raw words, not randint: {found}"


def test_package_does_not_import_tests():
    found = imports_of(package_nodes(), "tests")
    assert not found, f"oracles live in tests/ and the package never uses them: {found}"


def spelled(node):
    """The name a node spells: a Name's id, an Attribute's attr, a def's name."""
    return getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)


def test_the_g_array_is_read_by_user():
    """G's columns and pair positions are keyed by user, so no column index
    is kept, named or turned back into a user."""
    found = [f"{file}:{node.lineno}" for file, node in package_nodes()
             if isinstance(node, ast.Subscript) and spelled(node.value) == "column_users"
             or spelled(node) in {"column_index", "column_of_user"}]
    assert not found, f"read G by user, not by column: {found}"


def test_secrecy_reads_no_payload():
    """The verifier never reads a session's shares or library, so every
    verdict and witness depends on the session's structure alone: the
    G-array, the cached rows, the demands and which keys each user holds."""
    found = [f"{file}:{node.lineno}" for file, node in package_nodes()
             if file == "secrecy.py" and isinstance(node, ast.Attribute)
             and node.attr in {"shares", "library"}]
    assert not found, f"secrecy verdicts follow from structure alone: {found}"


def test_the_package_builds_no_dense_model():
    """Every verdict is decided on the carried-share table or on a model
    with no rows; SessionAnalyzer's dense per-symbol models are what the
    tests compare them with, and no module of the package builds one."""
    found = calls_named(package_nodes(), "SessionAnalyzer")
    assert not found, f"verify decides on the carried-share table: {found}"


def test_secrecy_reads_the_pairs_only_through_the_carried_share_table():
    """secrecy.py reads which shares a broadcast carries from
    GArray.pair_occurrences only in _carried_shares, and in the dense
    SessionAnalyzer models; every check and witness reads the table."""
    tree = ast.parse((PACKAGE / "secrecy.py").read_text())
    allowed = {id(node) for scope in ast.walk(tree)
               if isinstance(scope, (ast.FunctionDef, ast.ClassDef))
               and scope.name in {"_carried_shares", "SessionAnalyzer"}
               for node in ast.walk(scope)}
    found = [f"secrecy.py:{node.lineno}" for node in ast.walk(tree)
             if spelled(node) == "pair_occurrences" and id(node) not in allowed]
    assert not found, f"read the carried-share table, not the pairs: {found}"


PAIR_SEQUENCES = {"pairs", "pair_occurrences", "transmissions"}


def maps_pairs_to_rows(node) -> bool:
    """Whether a node is a dict comprehension over enumerate(...) of the
    pairs, the pair occurrences or the broadcasts: a pair -> row map."""
    return isinstance(node, ast.DictComp) and any(
        isinstance(gen.iter, ast.Call) and spelled(gen.iter.func) == "enumerate"
        and any(spelled(n) in PAIR_SEQUENCES for arg in gen.iter.args for n in ast.walk(arg))
        for gen in node.generators
    )


def test_pairs_map_to_rows_in_one_place():
    """GArray.pair_index is the one pair -> row map: the key and broadcast
    blocks are in pair order, so every other reader takes a pair's row
    from it or walks the pairs in order, and builds no map of its own."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owned = {id(node) for scope in ast.walk(tree)
                 if isinstance(scope, ast.ClassDef) and scope.name == "GArray"
                 for node in ast.walk(scope)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if maps_pairs_to_rows(node) and id(node) not in owned]
    assert not found, f"read a pair's row from GArray.pair_index: {found}"


def test_the_load_order_is_decided_by_the_association():
    """Each integer of a PDA costs the largest load among its columns under
    any cache labels, so Association, which relabels the caches by load, is
    the one code that makes or checks a nonincreasing profile: no other
    code raises its error, and outside bounds.py, which reads the loads
    largest first for lambda_s, no call sorts in reverse."""
    message = "profile must be nonincreasing"
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owned = {id(node) for scope in ast.walk(tree)
                 if isinstance(scope, ast.ClassDef) and scope.name == "Association"
                 for node in ast.walk(scope)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Raise) and id(node) not in owned
                  and message in ast.unparse(node)]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if path.name != "bounds.py" and isinstance(node, ast.Call)
                  and spelled(node.func) == "sorted"
                  and any(kw.arg == "reverse" for kw in node.keywords)]
    assert not found, f"only the association orders a profile by load: {found}"


def test_small_field_matmul_gathers_all_columns_at_once():
    """At l <= 8 matmul multiplies every coefficient column in one gather;
    its only loop steps through chunks of symbols, range(start, stop, step)."""
    tree = ast.parse((PACKAGE / "field.py").read_text())
    matmul = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "matmul")
    branch = next(node for node in ast.walk(matmul)
                  if isinstance(node, ast.If) and ast.unparse(node.test) == "self.l <= 8")
    loops = [node for stmt in branch.body for node in ast.walk(stmt)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    column_loops = [f"field.py:{getattr(loop, 'lineno', None) or loop.iter.lineno}"
                    for loop in loops
                    if not (isinstance(loop, ast.For) and isinstance(loop.iter, ast.Call)
                            and getattr(loop.iter.func, "id", None) == "range"
                            and len(loop.iter.args) == 3)]
    assert len(loops) <= 1 and not column_loops, (
        f"one chunk loop over the symbols, none over the columns: {column_loops}"
    )


# Defined in the package yet called from outside the program: NumPy calls
# the seed sequence's generate_state.
UNCALLED = {"_Unseeded.generate_state"}


def defined_functions(tree, owner=None):
    """(qualified name, name, owner class or None) of every function and
    method a module defines; a function nested in another has no owner."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from defined_functions(node, node.name)
        elif isinstance(node, ast.FunctionDef):
            yield (f"{owner}.{node.name}" if owner else node.name), node.name, owner
            yield from defined_functions(node)


def test_every_function_has_a_caller_in_the_program():
    """Every function and method of the package is read somewhere in the
    package or in perfbench/, or is exported in seccache.__all__.  A method
    counts as read only through an attribute (or its name as a string, as
    perfbench patches it), so a local variable of the same name does not
    keep a method alive; a function also counts through a plain name."""
    names, attributes = set(), set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.add(node.value)
    unused = [
        f"{path.name}:{qualified}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, name, owner in defined_functions(ast.parse(path.read_text()))
        if not (name.startswith("__") and name.endswith("__"))
        and qualified not in UNCALLED
        and name not in attributes
        and not (owner is None and (name in names or name in seccache.__all__))
    ]
    assert not unused, f"delete what no part of the program calls: {unused}"
