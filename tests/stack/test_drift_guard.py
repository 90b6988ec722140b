"""Drift guard: each job has one home, and this table says where.

Each row of :data:`ROWS` is one contract: a pattern, where it is banned,
who may still hold it there, what must still hold it, why, and the PR that
set it. :func:`check` reports every row's offending sites from one walk of
a source tree parsed once; a rule that is a shape, not "only in Y", is a
named finder beside the table that reads the same walk. The walk reads the
AST, so docstrings and comments never count. :data:`CASES` are snippets,
each placed at a path and checked against every row, whose ``# found:``
comments list all that the rows must report there.
"""

import ast
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def parse_tree(root=SRC):
    """``{path relative to root: module}`` for every source file under *root*."""
    return {
        path.relative_to(root).as_posix(): ast.parse(path.read_text(), filename=str(path))
        for path in sorted(root.rglob("*.py"))
    }


@dataclass(frozen=True)
class Row:
    """One contract. *kind* is a finder (``{path: [node, …]} -> [(path,
    line, what)]``) for a shape, or a pattern kind: ``call`` (the dotted
    callee), ``name`` (a name, attribute, import alias, argument, keyword or
    definition), ``def`` (a class or function definition), ``import``
    (``from a import b`` imports ``a`` and ``a.b``), ``attr`` (the dotted
    path of an attribute read on anything but bare ``self``), ``const`` (a
    string constant), ``key`` (a string written as a key: dict literal,
    subscript store, keyword) or ``module`` (the module's own path). A
    dotted pattern matches with or without its receivers. *match* is a
    regex, or a set of names each of which every *must_hold* place must
    hold. A place is a path prefix (``""`` is the tree, ``shard/`` a
    package) or ``path::Qualified.name``. *scope* is where the pattern is
    banned (``()``: nowhere, a row that only must hold), and *allow* who may
    still hold it there."""

    id: str
    kind: object
    match: object = ""
    scope: tuple = ("",)
    allow: tuple = ()
    must_hold: tuple = ()
    why: str = ""
    pr: object = ""


# -- the walker ---------------------------------------------------------

_DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
#: Nodes that hold nothing a row looks for, and nodes with nothing below them.
_LEAVES = (ast.expr_context, ast.operator, ast.boolop, ast.unaryop, ast.cmpop)
_BARE = {ast.Name, ast.Constant}
#: Nodes that are a name, by the field that holds it.
_NAMED = {ast.Name: "id", ast.alias: "name", ast.arg: "arg"}


def _dotted(node):
    """``a.b.c`` of an attribute chain; ``.c`` when it starts at a call or
    a subscript."""
    parts = []
    while type(node) is ast.Attribute:
        parts.append(node.attr)
        node = node.value
    parts.append(node.id if type(node) is ast.Name else "")
    return ".".join(reversed(parts))


def _callee(call):
    """The name a call calls: ``c`` of ``a.b.c()``."""
    return _dotted(call.func).rpartition(".")[2]


def _texts(node):
    """``(kind, text)`` for every pattern *node* presents."""
    kind = type(node)
    if kind is ast.Call:
        return [("call", _dotted(node.func))]
    if kind in _NAMED:
        return [("name", getattr(node, _NAMED[kind]))]
    if kind is ast.Attribute:
        if type(node.value) is ast.Name and node.value.id == "self":
            return [("name", node.attr)]
        return [("name", node.attr), ("attr", _dotted(node))]
    if kind in _DEFS:
        return [("name", node.name), ("def", node.name)]
    if kind is ast.keyword:
        return [("name", node.arg), ("key", node.arg)] if node.arg else []
    if kind is ast.Import:
        return [("import", alias.name) for alias in node.names]
    if kind is ast.ImportFrom:
        module = node.module or ""
        return [("import", module)] + [("import", f"{module}.{a.name}") for a in node.names]
    if kind is ast.Constant:
        return [("const", node.value)] if type(node.value) is str else []
    if kind is ast.Dict:
        keys = node.keys
    elif kind is ast.Subscript and type(node.ctx) is ast.Store:
        keys = [node.slice]
    else:
        return []
    return [("key", k.value) for k in keys if type(k) is ast.Constant and type(k.value) is str]


def _at(path, qual, places):
    """Whether *qual* in module *path* lies in one of *places*."""
    for place in places:
        file, _, owner = place.partition("::")
        if path == file and owner:
            if qual == owner or qual.startswith(owner + "."):
                return True
        elif not owner and path.startswith(file):
            return True
    return False


def _regex(row):
    match = row.match
    if isinstance(match, frozenset):
        match = "|".join(map(re.escape, sorted(match)))
    receivers = r"(?:.*\.)?" if row.kind in ("call", "attr") else ""
    return re.compile(f"{receivers}(?:{match})")


def check(modules, rows):
    """One walk of *modules* for *rows*: ``{row id: (sites, unheld)}``, the
    banned ``(path, line, what)`` sites and the *must_hold* places that no
    longer hold the pattern."""
    found = {row.id: [] for row in rows}
    held = {row.id: set() for row in rows}

    def note(row, path, qual, line, text):
        for place in row.must_hold:
            if _at(path, qual, (place,)):
                held[row.id].add((place, text.rpartition(".")[2]))
        if _at(path, qual, row.scope) and not _at(path, qual, row.allow):
            found[row.id].append((path, line, text))

    patterns = {}
    for row in rows:
        if isinstance(row.kind, str):
            patterns.setdefault(row.kind, []).append((row, _regex(row)))
    screen = {
        kind: re.compile("|".join(f"(?:{rx.pattern})" for _, rx in pairs)).fullmatch
        for kind, pairs in patterns.items()
    }
    walked = {}
    for path, tree in modules.items():
        for row, rx in patterns.get("module", ()):
            if rx.fullmatch(path):
                note(row, path, "", 1, path)
        nodes = walked[path] = []
        stack = [(tree, "")]
        while stack:
            node, qual = stack.pop()
            nodes.append(node)
            if type(node) in _DEFS:
                qual = f"{qual}.{node.name}" if qual else node.name
            for kind, text in _texts(node):
                if kind in screen and screen[kind](text):
                    for row, rx in patterns[kind]:
                        if rx.fullmatch(text):
                            note(row, path, qual, node.lineno, text)
            if type(node) in _BARE:
                continue
            for field in node._fields:
                value = getattr(node, field, None)
                for child in value if type(value) is list else (value,):
                    if isinstance(child, ast.AST) and not isinstance(child, _LEAVES):
                        stack.append((child, qual))
    for row in rows:
        if not isinstance(row.kind, str):
            files = [place.partition("::")[0] for place in (*row.scope, *row.must_hold)]
            for path, line, what in row.kind(
                {path: nodes for path, nodes in walked.items() if _at(path, "", files)}
            ):
                note(row, path, "", line, what)

    def unheld(row, place):
        texts = {text for held_at, text in held[row.id] if held_at == place}
        return not (row.match <= texts if isinstance(row.match, frozenset) else texts)

    return {
        row.id: (sorted(found[row.id]), [p for p in row.must_hold if unheld(row, p)])
        for row in rows
    }


# -- the shapes ---------------------------------------------------------


def _names_in(node):
    """Every bare name and attribute name in an expression."""
    return {
        part.id if isinstance(part, ast.Name) else part.attr
        for part in ast.walk(node)
        if isinstance(part, (ast.Name, ast.Attribute))
    }


def _len_of(node):
    """``x`` of ``len(x)``, for a bare name ``x``."""
    if isinstance(node, ast.Call) and _dotted(node.func) == "len" and len(node.args) == 1:
        return node.args[0].id if isinstance(node.args[0], ast.Name) else None


def _stride_sliced(loop_var, body):
    """Whether *body* holds ``x[i : i + n]`` for the loop variable ``i``."""
    return any(
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Slice)
        and _dotted(node.slice.lower) == loop_var
        and isinstance(node.slice.upper, ast.BinOp)
        and _dotted(node.slice.upper.left) == loop_var
        for node in ast.walk(body)
    )


def cutter_shapes(modules):
    """A ``for`` loop that appends to a list and compares that list's
    ``len`` with something, and a ``range(start, stop, step)`` loop or
    comprehension that slices ``[i : i + n]``."""
    for path, nodes in modules.items():
        for node in nodes:
            if isinstance(node, ast.For):
                inside = list(ast.walk(node))
                appended = {
                    call.func.value.id
                    for call in inside
                    if isinstance(call, ast.Call) and _dotted(call.func).endswith(".append")
                    and isinstance(call.func.value, ast.Name)
                }
                for compare in inside:
                    if isinstance(compare, ast.Compare) and any(
                        _len_of(side) in appended for side in (compare.left, *compare.comparators)
                    ):
                        yield path, compare.lineno, "len() of the batch it fills"
                loops = [(node.target, node.iter, node)]
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                loops = [(gen.target, gen.iter, node.elt) for gen in node.generators]
            else:
                continue
            for target, source, body in loops:
                if (
                    isinstance(target, ast.Name)
                    and isinstance(source, ast.Call)
                    and _dotted(source.func) == "range"
                    and len(source.args) == 3
                    and _stride_sliced(target.id, body)
                ):
                    yield path, source.lineno, "a list sliced by a stride"


def frame_loop_shapes(modules):
    """A call on the pool or a ring object inside ``receive_burst``'s frame
    loop, and ``_extract_tuple`` called outside the ``else`` of a test for
    ``ParsedPacket`` (so for a frame the header pass accepted)."""
    for path, nodes in modules.items():
        rejected = set()
        for burst in nodes:
            if not (isinstance(burst, ast.FunctionDef) and burst.name == "receive_burst"):
                continue
            frames = burst.args.args[1].arg  # the burst, after ``self``
            for loop in ast.walk(burst):
                if isinstance(loop, ast.For) and _dotted(loop.iter) == frames:
                    for call in ast.walk(loop):
                        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and (
                            _names_in(call.func.value) & {"pool", "ring"}
                        ):
                            yield path, call.lineno, "a pool/ring call in the frame loop"
            rejected |= {
                id(inner)
                for branch in ast.walk(burst)
                if isinstance(branch, ast.If) and "ParsedPacket" in _names_in(branch.test)
                for statement in branch.orelse
                for inner in ast.walk(statement)
            }
        for call in nodes:
            if isinstance(call, ast.Call) and _callee(call) == "_extract_tuple" and id(call) not in rejected:
                yield path, call.lineno, "_extract_tuple for an accepted frame"


def poll_write_shapes(modules):
    """In ``AnalyticsService``: ``_write_points`` called inside a loop, and
    ``pub.send`` in ``poll`` ahead of the poll's write."""
    for path, nodes in modules.items():
        for service in nodes:
            if not (isinstance(service, ast.ClassDef) and service.name == "AnalyticsService"):
                continue
            for method in service.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                looped = {
                    id(inner)
                    for loop in ast.walk(method)
                    if isinstance(loop, (ast.For, ast.While))
                    for inner in ast.walk(loop)
                }
                writes = []
                for call in ast.walk(method):
                    if isinstance(call, ast.Call) and _callee(call) == "_write_points":
                        writes.append(call.lineno)
                        if id(call) in looped:
                            yield path, call.lineno, "_write_points inside a loop"
                for node in ast.walk(method) if method.name == "poll" else ():
                    if isinstance(node, ast.Attribute) and _dotted(node).endswith("pub.send") and (
                        not writes or node.lineno < max(writes)
                    ):
                        yield path, node.lineno, "pub.send before the poll's write"


def point_from_tags_shapes(modules):
    """``Point(`` called with a ``tags=`` keyword or a third positional
    argument."""
    for path, nodes in modules.items():
        for node in nodes:
            if isinstance(node, ast.Call) and _callee(node) == "Point" and (
                len(node.args) > 2 or any(kw.arg == "tags" for kw in node.keywords)
            ):
                yield path, node.lineno, "Point( with tags"


def _is_layer(node):
    """Whether *node* is ``resilience`` / ``res`` (bare or as an attribute,
    possibly under ``not``)."""
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        node = node.operand
    return _dotted(node).rpartition(".")[2] in ("resilience", "res")


def unguarded_path_shapes(modules):
    """``resilience`` or ``res`` compared with None, or tested as a truth
    value by a branch."""
    for path, nodes in modules.items():
        for node in nodes:
            if isinstance(node, ast.Compare):
                sides = (node.left, *node.comparators)
                if any(map(_is_layer, sides)) and any(
                    isinstance(side, ast.Constant) and side.value is None for side in sides
                ):
                    yield path, node.lineno, "the layer compared with None"
            elif isinstance(node, (ast.If, ast.IfExp, ast.While)):
                test = node.test
                if any(map(_is_layer, test.values if isinstance(test, ast.BoolOp) else [test])):
                    yield path, node.lineno, "a branch on the layer's presence"


#: What the analytics and durable tiers build, whatever the fault profile.
TIER_OWNED = frozenset({"ResilienceLayer", "WriteAheadLog", "DurableTsdb"})


def tier_under_fault_shapes(modules):
    """A tier's component built under a test of ``profile`` or
    ``injector`` in ``StackBuilder.build``."""
    found = {
        (path, call.lineno, f"{_callee(call)}(")
        for path, nodes in modules.items()
        for klass in nodes
        if isinstance(klass, ast.ClassDef) and klass.name == "StackBuilder"
        for build in klass.body
        if isinstance(build, ast.FunctionDef) and build.name == "build"
        for branch in ast.walk(build)
        if isinstance(branch, (ast.If, ast.IfExp)) and _names_in(branch.test) & {"profile", "injector"}
        for call in ast.walk(branch)
        if isinstance(call, ast.Call) and _callee(call) in TIER_OWNED
    }
    return sorted(found)


#: Options that selected the retired wall-clock mode or second transport.
SHARD_MODE_OPTIONS = {"heartbeat_deadline_ms", "max_inflight", "transport", "transport_kind"}


def shard_mode_shapes(modules):
    """Mode-switch parameters in any signature under ``shard/`` or on the
    builder's ``build_sharded_runtime``. A *required* ``transport`` is the
    channel object a child is handed, not a choice of one."""
    for path, nodes in modules.items():
        for node in nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
                path == "stack/builder.py" and node.name != "build_sharded_runtime"
            ):
                continue
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            required = positional[: len(positional) - len(args.defaults)] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if not default
            ]
            for arg in (*positional, *args.kwonlyargs):
                if arg.arg in SHARD_MODE_OPTIONS and not (arg.arg == "transport" and arg in required):
                    yield path, node.lineno, f"{node.name}({arg.arg}=)"


def json_state_shapes(modules):
    """A JSON encode (``encode_json(`` or ``json.dumps(``) of a payload that
    carries state: a ``"state"`` key, a ``state_dict()`` call or a held
    ``.checkpoint``."""
    for path, nodes in modules.items():
        for node in nodes:
            if isinstance(node, ast.Call) and _callee(node) in ("encode_json", "dumps") and any(
                (isinstance(part, ast.Dict) and any(
                    isinstance(key, ast.Constant) and key.value == "state" for key in part.keys
                ))
                or (isinstance(part, ast.Call) and _callee(part) == "state_dict")
                or (isinstance(part, ast.Attribute) and part.attr == "checkpoint")
                for arg in (*node.args, *(kw.value for kw in node.keywords))
                for part in ast.walk(arg)
            ):
                yield path, node.lineno, f"{_callee(node)}( of a state"


# -- the table ----------------------------------------------------------

#: The counters ``count_books`` and the sharded parent's books read.
TIER_COUNTERS = frozenset({
    "injected", "total_restarts", "retries", "degraded_published", "points_written", "points_lost",
    "opened_count", "enriched_count", "conservation_ledger", "total_points", "offered", "admitted",
    "mq_offered", "truncated", "ring_displacements", "level_max", "shed_total", "shed_counts",
    "shed_ratio", "stats", "stats_snapshot", "frontend_received", "frontend_degraded",
    "rerouted_packets", "shed_by_class",
})
RUNTIME = "shard/runtime.py::ShardedRuntime"
SERVICE = "analytics/service.py::AnalyticsService"
PARALLEL = (RUNTIME, "durability/harness.py::RecoveryHarness", "resilience/invariants.py::Ledger")

ROWS = (
    Row("guarded-constructors", "call", frozenset({
        "AnalyticsService", "RuruPipeline", "GeoDbBuilder", "FaultyPushSocket", "OverloadController",
        "GatedPushSocket"}), allow=("stack/builder.py",), must_hold=("stack/builder.py",), pr="4, 8",
        why="A component built outside the builder silently forks the wiring and escapes the derived "
        "drain/checkpoint/fault orders; the builder still builds each one, so a rename updates this row."),
    Row("one-driver", "call", r"run_packets|\w*service\.finish", allow=("core/pipeline.py", "stack/"), pr=16,
        why="Feeding an assembled stack through the bare pipeline, or flushing the analytics service by "
        "hand, forks the driver and leaves records waiting at the PULL socket (use RuruStack.run)."),
    Row("no-parallel-mechanism", "def", r"\w*(?:Runtime|Harness|Ledger)", allow=PARALLEL,
        must_hold=PARALLEL, pr="16, 21", why="A new runtime, harness or ledger is a parallel mechanism "
        "by another name; these are the ones that exist (extend the allow-list only with a reason)."),
    Row("no-tracer", "name", r"_*tracer", pr=17,
        why="Timing has one home, StageGraph.process; a tracer handle is a second timing mechanism."),
    Row("no-span-call", "call", r".*\.span", pr=17,
        why="A .span( call is a second timing mechanism beside StageGraph.process."),
    Row("one-tracker-body", "call", "HandshakeTracker", allow=("core/worker.py",),
        must_hold=("core/worker.py",), pr=17,
        why="A second HandshakeTracker( construction site is a second worker body."),
    Row("one-header-walker-struct", "import", "struct", scope=("dpdk/", "core/", "overload/", "stack/"),
        allow=("dpdk/nic.py",), must_hold=("dpdk/nic.py",), pr=18,
        why="A frame's headers are walked once, by the port's PacketParser.parse; struct on the packet "
        "path is how a second header walker usually starts (a tripwire, not a proof: one that only "
        "indexes data[offset] passes). dpdk/nic.py keeps it for _extract_tuple, the hardware-style "
        "tuple read of frames the header pass rejected."),
    Row("one-header-walker-parser", "call", "PacketParser",
        allow=("net/", "core/worker.py", "dpdk/nic.py", "overload/classify.py"),
        must_hold=("core/worker.py", "dpdk/nic.py", "overload/classify.py"), pr=18,
        why="A PacketParser( built anywhere new is how a second header walker usually starts."),
    Row("one-shard-mode", shard_mode_shapes, scope=("shard/", "stack/builder.py"), pr=19,
        why="The sharded runtime has one mode, lock-step dispatch under the heartbeat lease; an option "
        "that selects another (a deadline, a window, a transport kind) brings the second one back."),
    Row("one-transport", "call", "socketpair", pr=19, why="One transport: the pipe pair the lease watches."),
    Row("one-stall-detector", "call", "monotonic", scope=("shard/",), pr=19,
        why="The lease and the child's cadence read monotonic_ns; a time.monotonic() is a private "
        "deadline beside the lease."),
    Row("four-lifecycle-states", "name", r"SHARD_(?!(?:UP|DOWN|DRAINED|FAILED)$)\w+", scope=("shard/",),
        pr=19, why="A fifth shard lifecycle state is a second mode coming back."),
    Row("lifecycle-states-held", "name", frozenset({"SHARD_UP", "SHARD_DOWN", "SHARD_DRAINED", "SHARD_FAILED"}),
        scope=(), must_hold=("shard/runtime.py",), pr=19, why="The four states live in the runtime."),
    Row("store-image-mirror", "name", "applied_lines", pr=20,
        why="The TSDB's write-ahead log is the store's only durable image; an applied_lines mirror is "
        "the store copied into the checkpoint."),
    Row("store-image-written", "key", "tsdb_lines", pr=20, why='A "tsdb_lines" key written anywhere '
        "is the store copied into the checkpoint."),
    Row("store-image-loader", "const", "tsdb_lines", pr="20, 34",
        why="A tsdb_lines read anywhere is the store copied into the checkpoint coming back; the one "
        "loader of old checkpoints went with the JSON envelopes they were written in."),
    Row("store-image-truncate", "call", "truncate", scope=("stack/",), pr=20,
        why="A .truncate( under stack/ cuts the log back to what a checkpoint does not cover."),
    Row("dispatch-seam-batch", "name", "encode_batch|decode_batch", allow=("shard/protocol.py",), pr=21,
        why="What crosses a shard's pipe is decided by one encode/decode pair, so the batch codec is "
        "named nowhere else (call protocol.encode_dispatch / decode_dispatch)."),
    Row("dispatch-seam-wire", "name", "encode_message",
        allow=("shard/protocol.py", "shard/transport.py", "shard/wire.py"), pr=21,
        why="The wire framer under the seam is named only by it and by transport.send, which frames "
        "every control message with it."),
    Row("dispatch-seam-held", "call", "encode_dispatch|decode_dispatch", scope=(),
        must_hold=(f"{RUNTIME}._dispatch", "shard/worker.py::shard_child_main"), pr=21,
        why="Both ends of the pipe go through the pair."),
    Row("one-cutter", cutter_shapes, allow=("core/feed.py",), must_hold=("core/feed.py",), pr=22,
        why="A packet stream is cut into feed batches by core/feed.py's batches; a second cutter has its "
        "own rule for the trailing batch and the stop flag, which is how ShardedRuntime.run and "
        "scenarios/shard_runner.py came to exist (call repro.core.feed.drive / batches)."),
    Row("no-shard-run", "def", "run", scope=(RUNTIME,), pr=22,
        why="ShardedRuntime is offered batches like a stage; a run method is a feed loop of its own."),
    Row("sharded-runtime-is-offered", "def", frozenset({"offer", "drain"}), scope=(),
        must_hold=(RUNTIME,), pr=22, why="ShardedRuntime is offered batches and drained."),
    Row("no-shard-runner", "module", r"scenarios/shard_runner\.py", pr=22,
        why="The scenarios' second runner for sharded runs stays gone."),
    Row("one-write-call", "call", "_write_points", scope=(SERVICE,),
        allow=(f"{SERVICE}.poll", f"{SERVICE}.finish"), must_hold=(f"{SERVICE}.poll",), pr=23,
        why="What a poll gathers goes to the store as one request, from the end of poll (and from "
        "finish); a write from elsewhere is the per-record path (a WAL frame, a flush and a round trip "
        "through the guard machinery per record) coming back."),
    Row("no-per-record-method", "def", "process_measurement", scope=(SERVICE,), pr=23,
        why="A process_measurement method is the per-record write path coming back."),
    Row("one-publish", "attr", r"pub\.send", scope=(SERVICE,), allow=(f"{SERVICE}.poll",),
        must_hold=(f"{SERVICE}.poll",), pr=23, why="The enriched feed is published by poll, after its write."),
    Row("poll-shaped-write", poll_write_shapes, scope=("analytics/service.py",), pr=23,
        why="A _write_points call inside the per-record loop, or a pub.send ahead of the poll's write, "
        "is the per-record path coming back."),
    Row("rx-frame-loop", frame_loop_shapes, scope=("dpdk/nic.py",), pr=24,
        why="The port's burst loop pays per frame only for what differs per frame: the buffer budget and "
        "each ring's room are local integers and the pool, ring and port counters are settled after "
        "it; a pool or ring call in the loop, or _extract_tuple for a frame the header pass accepted, "
        "is per-frame bookkeeping coming back."),
    Row("no-buffer-object", "call", "Mbuf|alloc", pr=24,
        why="Rows, not buffer objects: an Mbuf( or alloc( is a buffer object per frame."),
    Row("one-ring-reader", "call", "rx_burst|dequeue_burst|dequeue",
        allow=("dpdk/nic.py", "dpdk/ring.py", "core/worker.py"), pr=24,
        why="The rings have one reader, QueueWorker.poll -> process_burst (the port and its queues delegate)."),
    Row("one-burst-body", "def", "process_burst", allow=("core/worker.py",), must_hold=("core/worker.py",),
        pr=24, why="One process_burst body: the worker's."),
    Row("extract-tuple", "call", "_extract_tuple", allow=("dpdk/nic.py", "shard/runtime.py"), pr=24,
        why="Beside the port's reject branch only the shard router, which holds no parse of the frames "
        "it routes, reads a frame's tuple again."),
    Row("rx-path-held", "call", frozenset({"settle", "settle_burst", "_extract_tuple", "header_pass"}),
        scope=(), must_hold=("dpdk/nic.py::NicPort.receive_burst",), pr=24,
        why="The burst loop settles per burst and reads rejected frames only."),
    Row("worker-poll-held", "call", frozenset({"rx_burst", "process_burst", "give_back"}), scope=(),
        must_hold=("core/worker.py::QueueWorker.poll",), pr=24,
        why="The worker's poll reads its ring, processes the burst and gives the buffers back."),
    Row("one-guarded-path", unguarded_path_shapes, scope=("analytics/service.py",), pr=25,
        why="The analytics service runs behind its resilience layer in every preset; a branch on the "
        "layer's presence is the unguarded second path coming back (a service handed no layer builds "
        "a default one)."),
    Row("layer-held", "attr", r"self\.resilience\.\w+", scope=(), must_hold=("analytics/service.py",),
        pr=25, why="The service uses its layer."),
    Row("tiers-compose", tier_under_fault_shapes, scope=("stack/builder.py",), pr=25,
        why="Each builder call builds its own tier; a ResilienceLayer(, WriteAheadLog( or DurableTsdb( "
        "under a test of profile or injector in StackBuilder.build ties the analytics or durable tier "
        "to the faults tier again."),
    Row("tiers-held", "call", TIER_OWNED, scope=(), must_hold=("stack/builder.py::StackBuilder.build",),
        pr=25, why="StackBuilder.build builds every tier it is asked for."),
    Row("cli-is-a-spec", "name", r"StackBuilder|build_\w+_stack|build_sharded_runtime|AucklandLaScenario"
        r"|TrafficGenerator|\w*Injector|run_chaos|RecoveryHarness", scope=("cli.py",), pr=26,
        why="cli.py turns flags into a spec (flags -> ScenarioSpec -> Episode); naming a stack or "
        "generator constructor, or the chaos or recovery entry points, is the CLI wiring stacks again."),
    Row("cli-refuses-nothing", "call", r"\w*parser\w*\.error", scope=("cli.py",), pr=26,
        why="Refusals are the spec's and build()'s; a parser.error( is the CLI refusing flags itself."),
    Row("cli-runs-episodes", "name", "Episode", scope=(), must_hold=("cli.py",), pr=26,
        why="The CLI runs episodes."),
    Row("one-configuration-path", "call", r"StackBuilder|build_\w+_stack",
        allow=("stack/builder.py", "scenarios/runner.py::Episode"),
        must_hold=("scenarios/runner.py::Episode._build_stack",), pr=26,
        why="A spec becomes a stack in one place, the runner's Episode; a StackBuilder() or build_*_stack "
        "call anywhere else is a second configuration path."),
    Row("points-are-rows", point_from_tags_shapes, scope=("analytics/service.py", "analytics/aggregator.py"),
        pr=27, why="The record half's points are rows of series it keys once; a Point( built from a tags "
        "dict is the key worked out afresh per record (build the series key once, then Point.in_series)."),
    Row("rows-held", "call", r"Point\.in_series", scope=(),
        must_hold=("analytics/service.py", "analytics/aggregator.py"), pr=27, why="Both producers build rows."),
    Row("one-fold-per-run", "attr", TIER_COUNTERS, scope=("faults/", "scenarios/runner.py"), pr=28,
        why="A drained run's books are counted once, by count_books; a tier counter read beside them is "
        "how ChaosReport and the runner's own fold came to count the same run twice (read "
        "Episode.counts / DrainReport.counts)."),
    Row("count-books-held", "def", "count_books", scope=(), must_hold=("stack/builder.py",), pr=28,
        why="The books are counted in one place."),
    Row("episode-counts-held", "attr", r"episode\.counts", scope=(),
        must_hold=("faults/chaos.py", "scenarios/runner.py"), pr=28,
        why="The chaos verdict and the scenario runner read the books."),
    Row("shard-state-import", "import", r"repro\.durability(?!\.codec\b)(?:\..+)?", scope=("shard/",),
        pr="29, 34", why="A shard's recovery state lives in its parent (the last checkpoint reply and the "
        "acked counts); repro.durability under shard/ is the per-shard disk copy, and its second restart "
        "path, coming back. Its codec module, the envelope state travels in, touches no disk."),
    Row("shard-disk-calls", "call", r"open|os\.replace|Checkpointer|WriteAheadLog", scope=("shard/",), pr=29,
        why="An open(, os.replace, Checkpointer( or WriteAheadLog( under shard/ is a shard's state on disk "
        "(a restart loads the parent's last checkpoint reply plus its acked counts)."),
    Row("restart-from-parent-held", "attr", r"handle\.checkpoint", scope=(), must_hold=("shard/runtime.py",),
        pr=29, why="A restart reads the parent's copy of the shard's last checkpoint."),
    Row("no-shard-supervisor", "name", "ShardSupervisor", pr=30,
        why="There is one shard parent, ShardedRuntime; a ShardSupervisor anywhere is the second one."),
    Row("no-supervisor-module", "module", r"shard/supervisor\.py", pr=30,
        why="The second shard parent's module stays gone."),
    Row("one-fork", "call", "fork", allow=("shard/runtime.py",), must_hold=(f"{RUNTIME}._spawn",), pr=30,
        why="Only the shard parent forks, in ShardedRuntime._spawn."),
    Row("one-state-codec", "import", r"_?pickle(?:\..+)?", allow=("durability/codec.py",),
        must_hold=("durability/codec.py",), pr=34,
        why="Every state_dict crosses a process or disk boundary as one restricted pickle of plain rows, "
        "written and read in durability/codec.py; a pickle anywhere else has no such restriction."),
    Row("no-json-durability", "import", r"json(?:\..+)?", scope=("durability/",), pr=34,
        why="Checkpoints are the restricted pickle, and no JSON reader is kept beside it."),
    Row("no-json-state", json_state_shapes, scope=("shard/",), pr=34,
        why="A shard's state_dict rides the snapshot codec (protocol.encode_state); JSON turns its tuple "
        "rows into lists."),
    Row("state-codec-held", "call", frozenset({"encode_snapshot", "decode_snapshot"}), scope=(),
        must_hold=("shard/protocol.py",), pr=34, why="The ckpt reply and the restore ride the codec."),
    Row("no-json-shaping", "def", "_pack_key|_unpack_key|_pack_floats", pr=34,
        why="Tuple keys and bytes survive the codec as they are; a helper that tags or encodes them is "
        "the JSON shaping coming back."),
    Row("one-pump", "call", r".*\.(?:recv|recv_all)", scope=("shard/",),
        allow=(f"{RUNTIME}._await", f"{RUNTIME}._absorb", "shard/worker.py::shard_child_main"),
        must_hold=(f"{RUNTIME}._await", f"{RUNTIME}._absorb"), pr=30,
        why="A shard pipe is read only by the parent's lease-bounded pump (_await and _absorb) and the "
        "child's loop; any other reader has its own rule for what a message it did not expect means."),
    Row("no-switched-by", "name", "SWITCHED_BY", pr=35,
        why="Every tier is one entry of stack.tiers; a tier switched on from another section is a "
        "second switch, and its settings went unchecked on runs without it."),
    Row("overload-knobs-stay-home", "name", r"sampled_modulus|snap_len|up_dwell_\w+|down_dwell_\w+"
        r"|WatermarkBand", allow=("overload/",), pr=35,
        why="The overload tier runs at the controller's defaults; a spec key, builder parameter or "
        "preset that sets one of them is a knob no caller turns."),
)
ROW = {row.id: row for row in ROWS}

#: Modules, each placed at the path on its ``===`` line and checked against
#: every row: ``# found: row=what, …`` lists all the rows report on a line.
CASES = [
    (path, source)
    for path, _, source in (
        case.partition("\n") for case in '''
=== core/pipeline.py
"""RuruPipeline( in a docstring."""
pipeline = RuruPipeline(config)  # found: guarded-constructors=RuruPipeline
service = analytics.AnalyticsService(tsdb)  # found: guarded-constructors=analytics.AnalyticsService
stack = builder.analytics().build()
=== tools/go.py
class SideRuntime: pass  # found: no-parallel-mechanism=SideRuntime
class BatchLedger: pass  # found: no-parallel-mechanism=BatchLedger
def go(stack, service):
    stack.pipeline.run_packets([])  # found: one-driver=stack.pipeline.run_packets
    stack.service.finish()  # found: one-driver=stack.service.finish
    service.finish()  # found: one-driver=service.finish
    map_view.finish()
=== core/rogue.py
"""A tracer in a docstring; HandshakeTracker( in one too."""
from struct import Struct  # found: one-header-walker-struct=struct
import os, struct as st  # found: one-header-walker-struct=struct
walker = PacketParser(max_vlan_tags=0)  # found: one-header-walker-parser=PacketParser
def poll(self, tracer=None):  # found: no-tracer=tracer
    with self._tracer.span('worker.poll'):  # found: no-tracer=_tracer, no-span-call=self._tracer.span
        make(tracer=tracer)  # found: no-tracer=tracer, no-tracer=tracer
    width = table.span  # an attribute read, not a call
    return HandshakeTracker(config=None)  # found: one-tracker-body=HandshakeTracker
=== net/tool.py
import struct
parser = PacketParser()
=== dpdk/nic.py
"""pool.alloc( and ring.enqueue( in a docstring."""
def receive_burst(self, packets):
    room = [queue.ring.free_space for queue in self.queues]
    for packet in packets:
        parsed = header_pass(packet.data, 0)
        if parsed.__class__ is ParsedPacket:
            rss_hash = hash_tuple(*parsed[:4])
        else:
            extracted = self._extract_tuple(packet.data)
        rows[queue_id].append(make_row((0, rss_hash, parsed)))
    self.pool.settle(taken)
=== dpdk/nic.py
def receive_burst(self, packets):
    for packet in packets:
        extracted = self._extract_tuple(packet.data)  # found: rx-frame-loop=_extract_tuple for an accepted frame
        mbuf = self.pool.alloc(packet.data)  # found: rx-frame-loop=a pool/ring call in the frame loop, no-buffer-object=self.pool.alloc
        ring = self.queues[0].ring
        if ring.is_full:
            mbuf.free()
        ring.enqueue(Mbuf(data=packet.data))  # found: rx-frame-loop=a pool/ring call in the frame loop, no-buffer-object=Mbuf
=== tools/peek.py
def process_burst(self, rows): pass  # found: one-burst-body=process_burst
def peek(nic):
    key = NicPort._extract_tuple(data)  # found: extract-tuple=NicPort._extract_tuple
    return nic.rx_burst(0) + nic.queues[0].ring.dequeue_burst(4)  # found: one-ring-reader=nic.rx_burst, one-ring-reader=.ring.dequeue_burst
=== core/worker.py
def process_burst(self, rows): pass
=== shard/runtime.py
"""encode_batch in a docstring."""
from repro.shard.wire import encode_message  # found: dispatch-seam-wire=encode_message
SHARD_UP = "up"
SHARD_SUSPECT = "suspect"  # found: four-lifecycle-states=SHARD_SUSPECT
class Supervisor:
    def __init__(self, entry, transport_kind='pipe'):  # found: one-shard-mode=__init__(transport_kind=)
        left, right = socket.socketpair()  # found: one-transport=socket.socketpair
    def wait(self, transport, *, max_inflight=4):  # found: one-shard-mode=wait(max_inflight=)
        deadline = time.monotonic() + 30.0  # found: one-stall-detector=time.monotonic
        now = time.monotonic_ns()
    def _dispatch(self, handle, triples):
        self._send(handle, protocol.encode_batch(seq, triples))  # found: dispatch-seam-batch=encode_batch
=== shard/protocol.py
def encode_dispatch(seq, burst):
    return encode_message(encode_batch(seq, burst))
=== stack/builder.py
from repro.shard.supervisor import ShardSupervisor  # found: no-shard-supervisor=ShardSupervisor
def build(shards):
    return shard.ShardSupervisor(shards)  # found: no-shard-supervisor=ShardSupervisor
def build_sharded_runtime(shards, *, transport='pipe',  # found: one-shard-mode=build_sharded_runtime(transport=), one-shard-mode=build_sharded_runtime(heartbeat_deadline_ms=)
                          heartbeat_deadline_ms=None): pass
def build_live_stack(transport=None):
    return StackBuilder().build()
def _after_checkpoint(self, info):
    self.wal.truncate()  # found: store-image-truncate=self.wal.truncate
def state_dict(self):
    return {"tsdb_lines": list(self.tsdb.applied_lines)}  # found: store-image-written=tsdb_lines, store-image-loader=tsdb_lines, store-image-mirror=applied_lines
class StackBuilder:
    def build(self):
        if profile is not None:
            store = FlakyTimeSeriesDatabase(store, injector)
            if durability is not None:
                tsdb = DurableTsdb(store, WriteAheadLog(path))  # found: tiers-compose=DurableTsdb(, tiers-compose=WriteAheadLog(
            resilience = ResilienceLayer(seed=self._seed)  # found: tiers-compose=ResilienceLayer(
        if durability is not None:
            wal = WriteAheadLog(path)
        layer = ResilienceLayer() if injector else None  # found: tiers-compose=ResilienceLayer(
def elsewhere(profile):
    if profile:
        return ResilienceLayer()
=== stack/stages.py
"""Mentions tsdb_lines and applied_lines in a docstring."""
def load_state(self, state):
    if "tsdb_lines" in state:  # found: store-image-loader=tsdb_lines
        self.wal.compact(image=(0, state["tsdb_lines"]))  # found: store-image-loader=tsdb_lines
=== core/feed.py
def batches(packets, size):
    batch = []
    for packet in packets:
        if len(batch) >= size:
            yield batch
            batch = []
        batch.append(packet)
=== rogue.py
"""len(batch) >= size, packets[i : i + n] in a docstring."""
def run(self, packets, size):
    batch = []
    for packet in packets:
        batch.append(packet)
        if size <= len(batch):  # found: one-cutter=len() of the batch it fills
            self.offer(batch)
def trial(packets, n):
    return [packets[i : i + n] for i in range(0, len(packets), n)]  # found: one-cutter=a list sliced by a stride
def rounds(packets, n):
    for start in range(0, len(packets), n):  # found: one-cutter=a list sliced by a stride
        yield packets[start : start + n]
def capture(state, applied_lines):  # found: store-image-mirror=applied_lines
    state["tsdb_lines"] = applied_lines  # found: store-image-written=tsdb_lines, store-image-loader=tsdb_lines, store-image-mirror=applied_lines
    extra = dict(tsdb_lines=[])  # found: store-image-written=tsdb_lines
    peek = state.get("tsdb_lines")  # found: store-image-loader=tsdb_lines
    log.truncate()  # not under stack/
=== fine.py
def evict(items):
    for index in range(len(items) - 1, -1, -1):
        del items[index]
def collect(records, out):
    for record in records:
        out.append(record)
    return len(out) >= 1
def window(data, i, n):
    return data[i : i + n]
=== scenarios/shard_runner.py
RUNNER = None  # found: no-shard-runner=scenarios/shard_runner.py
=== analytics/service.py
"""process_measurement, pub.send and if resilience is None: in a docstring."""
KEY = series_key('latency', {'src_city': 'Auckland'})
class AnalyticsService:
    def __init__(self, resilience=None):
        self.resilience = resilience or ResilienceLayer()
    def poll(self, max_messages=256):
        enriched = [self._process_message(m) for m in self.pull.recv_all(max_messages)]
        self._write_points()
        send = self.pub.send
        for payload in enriched:
            send(payload)
    def finish(self):
        self.poll()
        self._write_points()
    def _enrich(self, record):
        res = self.resilience
        if not res.enrich_breaker.allow(self._now_ns):
            return degraded_measurement(record)
    def _raw_point(self, m):
        return Point.in_series(KEY, m.timestamp_ns, {'total_ms': 1.0}), Point('m', 1, fields={})
=== analytics/service.py
class AnalyticsService:
    def poll(self, max_messages=256):
        for message in self.pull.recv_all(max_messages):
            self._process_message(message)
            self._write_points()  # found: poll-shaped-write=_write_points inside a loop
    def _process_message(self, message):
        self.process_measurement(self._enrich(message))
    def process_measurement(self, measurement):  # found: no-per-record-method=process_measurement
        self._write_points([self._raw_point(measurement)])  # found: one-write-call=self._write_points
        self.pub.send(measurement)  # found: one-publish=self.pub.send
class Elsewhere:
    def relay(self):
        self.pub.send(b'not the service')
=== analytics/service.py
class AnalyticsService:
    def poll(self, max_messages=256):
        for message in self.pull.recv_all(max_messages):
            self.pub.send(self._process_message(message))  # found: poll-shaped-write=pub.send before the poll's write
        self._write_points()
    def _write_points(self):
        if self.resilience is None:  # found: one-guarded-path=the layer compared with None
            return self.tsdb.write_batch(self._request)
    def _enrich(self, record):
        res = self.resilience
        if res is not None and not res.enrich_breaker.allow(0):  # found: one-guarded-path=the layer compared with None
            return None
        return record if not res else None  # found: one-guarded-path=a branch on the layer's presence
=== analytics/aggregator.py
"""Point("m", 1, tags={"a": "b"}) in a docstring."""
raw = Point(measurement='latency', timestamp_ns=m.timestamp_ns,  # found: points-are-rows=Point( with tags
            tags={'src_city': m.src_city}, fields={'v': 1.0})
rollup = tsdb.Point('latency_by_asn', 0, {'src_asn': pair[0]}, stats)  # found: points-are-rows=Point( with tags
=== cli.py
"""StackBuilder, run_chaos and parser.error( in a docstring."""
from repro.stack import build_chaos_stack, StackBuilder  # found: cli-is-a-spec=build_chaos_stack, cli-is-a-spec=StackBuilder
from repro.traffic.scenarios import AucklandLaScenario as A  # found: cli-is-a-spec=AucklandLaScenario
def cmd(args):
    stack = repro.stack.build_durable_stack(args.state_dir)  # found: cli-is-a-spec=build_durable_stack, one-configuration-path=repro.stack.build_durable_stack
    glitch = FirewallGlitchInjector()  # found: cli-is-a-spec=FirewallGlitchInjector
    args.shard_parser.error('--shards does not take --profile')  # found: cli-refuses-nothing=args.shard_parser.error
    log.error('not a parser')
    return run_chaos(args.profile), Episode(spec)  # found: cli-is-a-spec=run_chaos
=== scenarios/runner.py
class Episode:
    def _build_stack(self):
        return StackBuilder().build()
def replay(spec):
    return StackBuilder().analytics().build()  # found: one-configuration-path=StackBuilder
=== harness.py
stack = build_durable_stack(path), Episode(spec)  # found: one-configuration-path=build_durable_stack
=== faults/injector.py
"""stack.injector.injected and resilience.retries in a docstring."""
class FaultInjector:
    def decide(self, key):
        self.injected[key] = self.injected.get(key, 0) + 1
def render(episode):
    return episode.counts['resilience.retries'], episode.stack.resilience.breakers
=== faults/chaos.py
def of(episode):
    stack = episode.stack
    faults = dict(stack.injector.injected)  # found: one-fold-per-run=stack.injector.injected
    retries, restarts = stack.resilience.retries, stack.supervisor.total_restarts  # found: one-fold-per-run=stack.resilience.retries, one-fold-per-run=stack.supervisor.total_restarts
    offered = [stack.overload.offered[k] for k in CLASSES]  # found: one-fold-per-run=stack.overload.offered
    return stack.pipeline.stats_snapshot().measurements  # found: one-fold-per-run=stack.pipeline.stats_snapshot
=== shard/fine.py
"""Once: open( a ShardStateStore, os.replace, a WriteAheadLog(, json.dumps(state)."""
import os
from repro.shard import protocol
from repro.durability.codec import encode_snapshot
def restart(handle, name):
    label = name.replace('-', '_')
    protocol.encode_json(b'fault', {'kill_at_seq': 3}), json.dumps({'states': 1})
    return protocol.encode_state(b'restore', {'state': handle.checkpoint})
=== shard/rogue.py
import repro.durability.wal  # found: shard-state-import=repro.durability.wal
import repro.durability.codecs  # found: shard-state-import=repro.durability.codecs
import pickle  # found: one-state-codec=pickle
def reply(books, handle, seq):
    send(protocol.encode_json(b'ckpt', {'seq': seq, 'state': books.state_dict()}))  # found: no-json-state=encode_json( of a state
    send(protocol.encode_json(b'restore', dict(state=handle.checkpoint)))  # found: no-json-state=encode_json( of a state
    return json.dumps(books.state_dict(), sort_keys=True)  # found: no-json-state=dumps( of a state
from repro.durability.shardstate import Store  # found: shard-state-import=repro.durability.shardstate, shard-state-import=repro.durability.shardstate.Store
from repro import durability  # found: shard-state-import=repro.durability
def checkpoint(self, state, path):
    with open(path + '.tmp', 'wb') as handle:  # found: shard-disk-calls=open
        handle.write(state)
    os.replace(path + '.tmp', path)  # found: shard-disk-calls=os.replace
    fd = os.open(path, os.O_RDONLY)  # found: shard-disk-calls=os.open
    self.log = repro.durability.wal.WriteAheadLog(path)  # found: shard-disk-calls=repro.durability.wal.WriteAheadLog
    return Checkpointer(state_dir=path, capture=dict)  # found: shard-disk-calls=Checkpointer
=== shard/runtime.py
"""Once ShardSupervisor, .recv( and os.fork() in a docstring."""
import os
class ShardedRuntime:
    def offer(self, packets): pass
    def run(self, packets): pass  # found: no-shard-run=run
    def _await(self, handle, done):
        return handle.transport.recv(timeout=0.05)
    def _absorb(self, handle):
        return [m for m in handle.transport.recv_all()]
    def _spawn(self, handle):
        return os.fork()
    def drain_shard(self, handle):
        return handle.transport.recv(timeout=0.05)  # found: one-pump=handle.transport.recv
class Elsewhere:
    def run(self): pass
=== shard/worker.py
def shard_child_main(transport, shard_id):
    return transport.recv(timeout=0.01)
=== durability/codec.py
import pickle
import io, struct
=== durability/checkpoint.py
import json  # found: no-json-durability=json
from pickle import loads  # found: one-state-codec=pickle, one-state-codec=pickle.loads
from json.decoder import JSONDecodeError  # found: no-json-durability=json.decoder, no-json-durability=json.decoder.JSONDecodeError
def _pack_floats(values):  # found: no-json-shaping=_pack_floats
    return values
class TopK:
    def _pack_key(self, key):  # found: no-json-shaping=_pack_key
        return key
    def load(self, rows):
        return [_unpack_key(row) for row in rows]
=== mq/socket.py
def poll(sock):
    return sock.recv(0), sock.recv_all()
=== shard/supervisor.py
import os  # found: no-supervisor-module=shard/supervisor.py
from repro.shard.heartbeat import FailureDetector
class ShardSupervisor:  # found: no-shard-supervisor=ShardSupervisor
    def _spawn(self, handle):
        return os.fork()  # found: one-fork=os.fork
    def declare_down(self, handle):
        for message in handle.transport.recv_all():  # found: one-pump=handle.transport.recv_all
            def late(transport=handle.transport):  # found: one-shard-mode=late(transport=)
                return transport.recv()  # found: one-pump=transport.recv
=== scenarios/spec.py
"""SWITCHED_BY and snap_len in a docstring."""
from repro.overload import WatermarkBand  # found: overload-knobs-stay-home=WatermarkBand
SWITCHED_BY = {"topk": "stack.topk"}  # found: no-switched-by=SWITCHED_BY
def overload(builder, snap_len=256):  # found: overload-knobs-stay-home=snap_len
    return builder.overload(up_dwell_ms=50.0)  # found: overload-knobs-stay-home=up_dwell_ms
knob = spec.overload.sampled_modulus  # found: overload-knobs-stay-home=sampled_modulus
help = "frames cut to snap_len"
=== overload/controller.py
def controller(band=WatermarkBand(), down_dwell_ns=0, sampled_modulus=8, snap_len=256):
    return band
'''.split("\n=== ")[1:]
    )
]


def _marked(source):
    """The ``(row id, line, what)`` a case's ``# found:`` comments list."""
    return sorted(
        (row_id, number, what)
        for number, line in enumerate(source.splitlines(), 1)
        if "# found:" in line
        for item in line.split("# found:")[1].split(", ")
        for row_id, _, what in [item.strip().partition("=")]
    )


# -- the tests ----------------------------------------------------------


@pytest.fixture(scope="session")
def report():
    return check(parse_tree(), ROWS)


def _holds(row, report):
    sites, unheld = report[row.id]
    lines = [f"{path}:{line} {what}" for path, line, what in sites]
    lines += [f"{place} no longer holds {row.kind} {row.match}" for place in unheld]
    assert not lines, f"[{row.id}] {row.why} (PR {row.pr})\n  " + "\n  ".join(lines)


def _reported_as_marked(path, source):
    found = check({path: ast.parse(source)}, ROWS)
    assert sorted(
        (row_id, line, what) for row_id, (sites, _) in found.items() for _, line, what in sites
    ) == _marked(source)


def _emptied_holders_fail(row):
    emptied = {place.partition("::")[0]: ast.Module([], []) for place in row.must_hold}
    assert check(emptied, [row])[row.id][1] == list(row.must_hold)


@pytest.mark.parametrize("row", ROWS, ids=ROW)
def test_contract_holds(row, report):
    _holds(row, report)


@pytest.mark.parametrize("path, source", CASES, ids=[path for path, _ in CASES])
def test_case_is_reported_as_marked(path, source):
    _reported_as_marked(path, source)


@pytest.mark.parametrize("row", [row for row in ROWS if row.must_hold], ids=lambda row: row.id)
def test_must_hold_fails_when_its_holder_is_emptied(row):
    _emptied_holders_fail(row)


def test_every_row_bites():
    """Each row has its own id, and either bans something a case shows it
    reporting or, banning nothing, must hold something."""
    marked = {row_id for _, source in CASES for row_id, _, _ in _marked(source)}
    assert len(ROW) == len(ROWS)
    assert [row.id for row in ROWS if not (row.id in marked if row.scope else row.must_hold)] == []


#: The tests the table replaced, under their former names. Each checks the
#: rows that now hold its rule; a twin (``*_sees_*``) runs the cases that
#: mark them and empties their holders.
FORMER = """
TestNoDirectAssemblyOutsideStack::test_guarded_constructors_only_called_from_the_builder guarded-constructors
TestNoDirectAssemblyOutsideStack::test_the_builder_itself_still_assembles_the_stack guarded-constructors
TestOneDriver::test_no_run_packets_or_service_finish_outside_the_stack one-driver
TestOneDriver::test_no_new_runtime_harness_or_ledger_class no-parallel-mechanism
TestOneDriver::test_the_guard_sees_what_it_guards one-driver no-parallel-mechanism
TestOneDriver::test_one_function_cuts_a_packet_stream one-cutter
TestOneDriver::test_the_cutter_guard_sees_what_it_guards one-cutter
TestOneDriver::test_the_sharded_runtime_has_no_feed_loop_and_no_runner_of_its_own no-shard-run sharded-runtime-is-offered no-shard-runner
TestOneBodyPerHotFunction::test_no_tracer_and_no_span_call no-tracer no-span-call
TestOneBodyPerHotFunction::test_one_worker_body_builds_the_tracker one-tracker-body
TestOneBodyPerHotFunction::test_one_header_walker_on_the_packet_path one-header-walker-struct one-header-walker-parser
TestOneBodyPerHotFunction::test_the_guard_sees_what_it_guards no-tracer no-span-call one-tracker-body one-header-walker-struct one-header-walker-parser
TestOneBodyPerHotFunction::test_the_burst_loop_pays_per_frame_only_for_the_frame rx-frame-loop no-buffer-object one-ring-reader one-burst-body extract-tuple rx-path-held worker-poll-held
TestOneBodyPerHotFunction::test_the_rx_guard_sees_what_it_guards rx-frame-loop no-buffer-object one-ring-reader one-burst-body extract-tuple rx-path-held worker-poll-held
TestOneShardMode::test_no_mode_switch_in_any_shard_signature one-shard-mode
TestOneShardMode::test_one_transport_and_one_stall_detector one-transport one-stall-detector
TestOneShardMode::test_one_dispatch_seam dispatch-seam-batch dispatch-seam-wire dispatch-seam-held
TestOneShardMode::test_four_lifecycle_states four-lifecycle-states lifecycle-states-held
TestOneShardMode::test_the_guard_sees_what_it_guards one-shard-mode one-transport one-stall-detector four-lifecycle-states lifecycle-states-held dispatch-seam-batch dispatch-seam-wire dispatch-seam-held
TestOneStoreImage::test_the_log_is_the_only_image_of_the_store store-image-mirror store-image-written store-image-loader store-image-truncate
TestOneStoreImage::test_the_legacy_loader_still_reads_old_checkpoints store-image-loader
TestOneStoreImage::test_the_guard_sees_what_it_guards store-image-mirror store-image-written store-image-loader store-image-truncate
TestOneWritePath::test_one_write_and_one_publish_per_poll one-write-call no-per-record-method one-publish poll-shaped-write
TestOneWritePath::test_the_guard_sees_what_it_guards one-write-call no-per-record-method one-publish poll-shaped-write
TestPointsAreRows::test_producers_key_each_series_once points-are-rows rows-held
TestPointsAreRows::test_the_guard_sees_what_it_guards points-are-rows rows-held
TestTiersCompose::test_the_analytics_tier_has_one_guarded_path one-guarded-path layer-held
TestTiersCompose::test_no_tier_is_built_under_a_test_of_the_fault_profile tiers-compose tiers-held
TestTiersCompose::test_the_guard_sees_what_it_guards one-guarded-path layer-held tiers-compose tiers-held
TestOneConfigurationPath::test_the_cli_builds_no_stack_and_refuses_nothing_itself cli-is-a-spec cli-refuses-nothing cli-runs-episodes
TestOneConfigurationPath::test_only_the_episode_builds_a_stack one-configuration-path
TestOneConfigurationPath::test_the_guard_sees_what_it_guards cli-is-a-spec cli-refuses-nothing cli-runs-episodes one-configuration-path
TestOneFoldPerRun::test_the_books_are_counted_once one-fold-per-run count-books-held episode-counts-held
TestOneFoldPerRun::test_the_guard_sees_what_it_guards one-fold-per-run count-books-held episode-counts-held
TestShardStateLivesInTheParent::test_no_shard_module_keeps_state_on_disk shard-state-import shard-disk-calls restart-from-parent-held
TestShardStateLivesInTheParent::test_the_guard_sees_what_it_guards shard-state-import shard-disk-calls restart-from-parent-held
TestOneShardParent::test_one_parent_reads_every_pipe_through_one_pump no-shard-supervisor no-supervisor-module one-fork one-pump
TestOneShardParent::test_the_guard_sees_what_it_guards no-shard-supervisor no-supervisor-module one-fork one-pump
"""


def _former(row_ids, twin):
    rows = [ROW[row_id] for row_id in row_ids]

    def holds(self, report):
        for row in rows:
            _holds(row, report)

    def sees(self):
        for path, source in CASES:
            if set(row_ids) & {row_id for row_id, _, _ in _marked(source)}:
                _reported_as_marked(path, source)
        for row in (row for row in rows if row.must_hold):
            _emptied_holders_fail(row)

    return sees if twin else holds


for _test, *_row_ids in map(str.split, FORMER.strip().splitlines()):
    _class, _name = _test.split("::")
    setattr(globals().setdefault(_class, type(_class, (), {})), _name, _former(_row_ids, "_sees_" in _name))
