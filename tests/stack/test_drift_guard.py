"""Drift guard: all stack assembly and all driving go through repro.stack.

Any new code that constructs the core components directly — instead of
going through the builder — silently forks the wiring and escapes the
derived drain/checkpoint/fault orders; any new code that feeds an
assembled stack through the bare pipeline, or flushes the analytics
service by hand, forks the *driver* and leaves records waiting at the
PULL socket. Timing has one home too — ``StageGraph.process`` —
so a tracer handle or a ``.span(`` call anywhere is a second timing
mechanism, and a second ``HandshakeTracker(`` construction site is a
second worker body. A frame's headers are walked once, by the port's
``PacketParser.parse``: ``struct`` imported on the packet path, or a
``PacketParser(`` built anywhere new, is how a second header walker
usually starts (a tripwire, not a proof: one that only indexes
``data[offset]`` passes). The sharded runtime has one mode — lock-step
dispatch under the heartbeat lease — so an option that selects another
(a deadline, a window, a transport kind), a fifth lifecycle state or a
private ``time.monotonic()`` deadline is how the second one comes
back; and what crosses a shard's pipe is decided by one encode/decode
pair (``protocol.encode_dispatch`` / ``decode_dispatch``), so the batch
codec and the wire framer under it are named nowhere else. The TSDB's
write-ahead log is the store's only durable image, and a second one
comes back two ways: the store copied into the
checkpoint (an ``applied_lines`` mirror, a ``"tsdb_lines"`` key
written), or the log cut back to what a checkpoint does not cover (a
``.truncate(`` under ``stack/``). A packet stream is cut into feed
batches by one function, ``core/feed.py``'s ``batches``: a loop that
appends to a list and compares its ``len`` to a size, or a packet list
sliced by a stride, is a second cutter with its own rule for the trailing
batch and the stop flag — which is how ``ShardedRuntime.run`` and
``scenarios/shard_runner.py`` came to exist, and why neither may come
back. The analytics service has one write path and it is poll-shaped:
what a poll gathers goes to the store as one request, from the end of
``poll`` (and from ``finish``), and the enriched feed is published
after it — a ``_write_points`` call inside the per-record loop, a
``process_measurement`` method, or a ``pub.send`` ahead of the poll's
write is the per-record path (a WAL frame, a flush and a round trip
through the guard machinery per record) coming back. Its points are
rows of series it keys once: a ``Point(`` built from a tags dict in
``analytics/service.py`` or ``analytics/aggregator.py`` is the key
worked out afresh (a dict, a sort, a tuple) per record. The port's burst
loop pays per frame only for what differs per frame: the buffer budget
and each ring's room are local integers inside it and the pool, ring
and port counters are settled after it, so a call on the pool or on a
ring object inside the loop, an ``Mbuf(`` or an ``alloc(`` anywhere, a
second reader of the rings beside ``QueueWorker.poll`` →
``process_burst``, or ``_extract_tuple`` called for a frame the header
pass accepted, is the per-frame bookkeeping coming back. Each builder
call builds its own tier: the analytics service runs behind its
resilience layer in every preset, so a branch on that layer's presence
in ``analytics/service.py`` is the unguarded second path coming back,
and a ``ResilienceLayer(``, ``WriteAheadLog(`` or ``DurableTsdb(`` under
a test of ``profile`` or ``injector`` in ``StackBuilder.build`` ties the
analytics or durable tier to the faults tier again. A spec becomes a
stack in one place, the runner's ``Episode``: a ``StackBuilder()`` or
``build_*_stack`` call anywhere else in ``src/`` is a second
configuration path, and ``cli.py`` — flags in, a spec out — naming a
stack or generator constructor, the chaos or recovery entry points, or
calling ``parser.error`` is the CLI wiring stacks, or refusing flags,
on its own again. A drained in-process run's books are counted once,
by ``stack/builder.py``'s ``count_books`` (``DrainReport.counts``): a
tier counter (``injector.injected``, ``resilience.retries``,
``supervisor.total_restarts``, ``controller.offered``, …) read in
``faults/`` or ``scenarios/runner.py`` is a second fold coming back —
which is how ``ChaosReport`` and the runner's own fold came to count
the same run twice. A shard's recovery state lives in its parent — the
last checkpoint reply and the acked counts — so ``repro.durability``
imported under ``shard/``, or an ``open(``, ``os.replace``,
``Checkpointer(`` or ``WriteAheadLog(`` call there, is the per-shard
disk copy (and its second restart path) coming back. And there is one
shard parent, ``ShardedRuntime``: a ``ShardSupervisor`` anywhere, an
``os.fork`` outside ``shard/runtime.py``, or a shard pipe read (a
``.recv(`` or ``.recv_all(`` under ``shard/``) anywhere but the
parent's pump — ``_await`` and ``_absorb`` — and the child's
``shard_child_main`` is the second parent, with its own reads and its
own rule for what a message it did not expect means, coming back. This test walks
the source tree with the AST module so string mentions in docstrings or
comments do not trip it; only real names, imports, call sites and class
definitions count.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

# Components whose construction implies stack assembly.
GUARDED = {
    "AnalyticsService",
    "RuruPipeline",
    "GeoDbBuilder",
    "FaultyPushSocket",
    "OverloadController",
    "GatedPushSocket",
}

# The composition root is the one place allowed to build them.
ALLOWED = {SRC / "stack" / "builder.py"}

# The second-driver calls: only the bare pipeline's own entry point and
# the stage wrappers may make them.
DRIVER_ALLOWED = (SRC / "core" / "pipeline.py", SRC / "stack")

# A new runtime, harness or ledger is a parallel mechanism by another
# name; these are the ones that exist.
PARALLEL_SUFFIXES = ("Runtime", "Harness", "Ledger")
PARALLEL_ALLOWED = {"ShardedRuntime", "RecoveryHarness", "Ledger"}


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def guarded_call_sites():
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _called_name(node)
                if name in GUARDED:
                    sites.append((path, node.lineno, name))
    return sites


def _receiver_name(call: ast.Call) -> str | None:
    """``x`` of ``x.method()`` / ``a.x.method()``."""
    if not isinstance(call.func, ast.Attribute):
        return None
    value = call.func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


def second_driver_call_sites(root=SRC):
    sites = []
    for path in sorted(root.rglob("*.py")):
        if any(path == ok or ok in path.parents for ok in DRIVER_ALLOWED):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name == "run_packets" or (
                name == "finish"
                and (_receiver_name(node) or "").endswith("service")
            ):
                sites.append((path, node.lineno, name))
    return sites


def parallel_mechanism_classes(root=SRC):
    return [
        (path, node.lineno, node.name)
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef)
        and node.name.endswith(PARALLEL_SUFFIXES)
        and node.name not in PARALLEL_ALLOWED
    ]


def second_timing_sites(root=SRC):
    """Every ``tracer`` name (variable, argument, attribute, keyword)
    and every ``.span(`` call."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute) and node.func.attr == "span":
                    sites.append((path, node.lineno, ".span("))
                continue
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.arg, ast.keyword)):
                name = node.arg
            else:
                continue
            if name and name.lstrip("_") == "tracer":
                sites.append((path, node.lineno, name))
    return sites


def tracker_construction_files(root=SRC):
    return sorted(
        {
            path
            for path in root.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call)
            and _called_name(node) == "HandshakeTracker"
        }
    )


#: The packages a frame crosses between the port and the sink.
PACKET_PATH = ("dpdk", "core", "overload", "stack")


def struct_import_files(root=SRC, packages=PACKET_PATH):
    """Packet-path files that import ``struct`` (the tool a header
    walker is made of)."""
    found = set()
    for package in packages:
        for path in (root / package).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module]
                else:
                    continue
                if "struct" in modules:
                    found.add(path)
    return sorted(found)


def parser_construction_files(root=SRC):
    return sorted(
        {
            path
            for path in root.rglob("*.py")
            if root / "net" not in path.parents
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call) and _called_name(node) == "PacketParser"
        }
    )


#: Options that selected the retired wall-clock mode or second transport.
SHARD_MODE_OPTIONS = {
    "heartbeat_deadline_ms",
    "max_inflight",
    "transport",
    "transport_kind",
}


def _functions(path):
    return [
        node
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _mode_options(node):
    """*node*'s parameters that are shard mode options. A *required*
    ``transport`` is the channel object a child is handed, not a choice
    of one; with a default it is the choice."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    required = positional[: len(positional) - len(args.defaults)] + [
        arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if not default
    ]
    return [
        arg.arg
        for arg in (*positional, *args.kwonlyargs)
        if arg.arg in SHARD_MODE_OPTIONS
        and not (arg.arg == "transport" and arg in required)
    ]


def shard_mode_parameters(root=SRC):
    """Mode-switch parameters in any signature under ``shard/`` or on
    the builder's ``build_sharded_runtime``."""
    functions = [
        (path, node)
        for path in sorted((root / "shard").rglob("*.py"))
        for node in _functions(path)
    ] + [
        (path, node)
        for path in [root / "stack" / "builder.py"]
        if path.exists()
        for node in _functions(path)
        if node.name == "build_sharded_runtime"
    ]
    return [
        (path, node.name, name)
        for path, node in functions
        for name in _mode_options(node)
    ]


def calls_named(name, root=SRC):
    return [
        (path, node.lineno)
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call) and _called_name(node) == name
    ]


def shard_lifecycle_states(root=SRC):
    tree = ast.parse((root / "shard" / "runtime.py").read_text())
    return sorted(
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("SHARD_")
    )


#: The functions under the shard dispatch seam → the only files (under
#: ``src/repro``) that may name them. ``transport.send`` frames every
#: control message with the wire encoder, so it keeps that one.
SEAM_INNER = {
    "encode_batch": {"shard/protocol.py"},
    "decode_batch": {"shard/protocol.py"},
    "encode_message": {"shard/protocol.py", "shard/transport.py", "shard/wire.py"},
}


def seam_inner_sites(root=SRC):
    """Every name, attribute or import of a function under the seam,
    outside the files that own it."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        owner = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in SEAM_INNER and owner not in SEAM_INNER[name]:
                sites.append((path, node.lineno, name))
    return sites


def _calls_inside(path, function):
    """Names called anywhere inside *function* of *path*."""
    return {
        _called_name(call)
        for node in _functions(path)
        if node.name == function
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    }


#: The one place that may still *read* a checkpoint's ``tsdb_lines``.
LEGACY_LOADER = SRC / "stack" / "stages.py"


def second_store_image_sites(root=SRC, legacy_loader=LEGACY_LOADER):
    """Where a second durable image of the store could come back: any
    ``applied_lines`` name, ``"tsdb_lines"`` written as a key anywhere
    (or so much as read outside the legacy loader), and ``.truncate(``
    called under ``stack/``."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "applied_lines":
                sites.append((path, node.lineno, "applied_lines"))
            elif isinstance(node, ast.Name) and node.id == "applied_lines":
                sites.append((path, node.lineno, "applied_lines"))
            elif isinstance(node, ast.Dict) and any(
                isinstance(key, ast.Constant) and key.value == "tsdb_lines"
                for key in node.keys
            ):
                sites.append((path, node.lineno, '"tsdb_lines" written'))
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Constant)
                and node.slice.value == "tsdb_lines"
                and isinstance(node.ctx, ast.Store)
            ):
                sites.append((path, node.lineno, '"tsdb_lines" written'))
            elif isinstance(node, ast.keyword) and node.arg == "tsdb_lines":
                sites.append((path, node.lineno, '"tsdb_lines" written'))
            elif (
                isinstance(node, ast.Constant)
                and node.value == "tsdb_lines"
                and path != legacy_loader
            ):
                sites.append((path, node.lineno, '"tsdb_lines" outside the loader'))
            elif (
                isinstance(node, ast.Call)
                and _called_name(node) == "truncate"
                and root / "stack" in path.parents
            ):
                sites.append((path, node.lineno, ".truncate("))
    return sites


#: The one module that may cut a packet stream into feed batches.
CUTTER = SRC / "core" / "feed.py"


def _len_of(node):
    """``x`` of ``len(x)``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Name)
    ):
        return node.args[0].id
    return None


def _stride_sliced(loop_var, body):
    """Whether *body* holds ``x[i : i + n]`` for the loop variable ``i``."""
    return any(
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Slice)
        and isinstance(node.slice.lower, ast.Name)
        and node.slice.lower.id == loop_var
        and isinstance(node.slice.upper, ast.BinOp)
        and isinstance(node.slice.upper.left, ast.Name)
        and node.slice.upper.left.id == loop_var
        for node in ast.walk(body)
    )


def second_cutter_sites(root=SRC, cutter=CUTTER):
    """The two shapes a hand-rolled batch cutter takes: a ``for`` loop
    that appends to a list and compares that list's ``len`` with
    something, and a ``range(start, stop, step)`` loop or comprehension
    that slices ``[i : i + n]``."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        if path == cutter:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.For):
                appended = {
                    call.func.value.id
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "append"
                    and isinstance(call.func.value, ast.Name)
                }
                sites.extend(
                    (path, compare.lineno, "len() of the batch it fills")
                    for compare in ast.walk(node)
                    if isinstance(compare, ast.Compare)
                    and any(
                        _len_of(side) in appended
                        for side in (compare.left, *compare.comparators)
                    )
                )
                loops = [(node.target, node.iter, node)]
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                loops = [(gen.target, gen.iter, node.elt) for gen in node.generators]
            else:
                continue
            sites.extend(
                (path, source.lineno, "a list sliced by a stride")
                for target, source, body in loops
                if isinstance(target, ast.Name)
                and isinstance(source, ast.Call)
                and _called_name(source) == "range"
                and len(source.args) == 3
                and _stride_sliced(target.id, body)
            )
    return sites



#: The module whose ``NicPort.receive_burst`` is the port's burst loop.
NIC = SRC / "dpdk" / "nic.py"
#: Who may call ``_extract_tuple`` beside the port's reject branch: the
#: shard router, which holds no parse of the frames it routes.
EXTRACT_ALLOWED = {SRC / "shard" / "runtime.py"}
#: The calls that take rows off a ring, and who may make them: the port
#: and its queues (delegation), and the worker's ``poll``.
RING_READS = {"rx_burst", "dequeue_burst", "dequeue"}
RING_READERS = {NIC, SRC / "dpdk" / "ring.py", SRC / "core" / "worker.py"}


def _names_in(node):
    """Every bare name and attribute name in an expression."""
    return {
        part.id if isinstance(part, ast.Name) else part.attr
        for part in ast.walk(node)
        if isinstance(part, (ast.Name, ast.Attribute))
    }


def rx_path_sites(root=SRC, nic=NIC):
    """Where per-frame bookkeeping could come back on the rx path: a
    call on the pool or a ring object inside ``receive_burst``'s frame
    loop; ``_extract_tuple`` called outside the ``else`` of a test for
    ``ParsedPacket`` (in the port) or outside the allow-list (anywhere
    else); an ``Mbuf(`` or ``alloc(`` call; a ring read outside the
    port and the worker; a second ``process_burst`` body."""
    sites = []
    (receive_burst,) = [f for f in _functions(nic) if f.name == "receive_burst"]
    frames = receive_burst.args.args[1].arg  # the burst, after ``self``
    (loop,) = [
        node
        for node in ast.walk(receive_burst)
        if isinstance(node, ast.For)
        and isinstance(node.iter, ast.Name)
        and node.iter.id == frames
    ]
    sites.extend(
        (nic, call.lineno, "a pool/ring call in the frame loop")
        for call in ast.walk(loop)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and _names_in(call.func.value) & {"pool", "ring"}
    )
    rejected = {
        (inner.lineno, inner.col_offset)
        for branch in ast.walk(receive_burst)
        if isinstance(branch, ast.If) and "ParsedPacket" in _names_in(branch.test)
        for statement in branch.orelse
        for inner in ast.walk(statement)
        if isinstance(inner, ast.Call)
    }
    bodies = 0
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "process_burst":
                bodies += 1
                if bodies > 1:
                    sites.append((path, node.lineno, "a second process_burst"))
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            if name in ("Mbuf", "alloc"):
                sites.append((path, node.lineno, f"{name}( — a buffer object per frame"))
            elif name in RING_READS and path not in RING_READERS:
                sites.append((path, node.lineno, f"{name}( — a second ring reader"))
            elif name == "_extract_tuple" and path not in EXTRACT_ALLOWED:
                if path != nic or (node.lineno, node.col_offset) not in rejected:
                    sites.append((path, node.lineno, "_extract_tuple for an accepted frame"))
    return sites


#: The module whose ``AnalyticsService`` owns the record half's writes.
SERVICE = SRC / "analytics" / "service.py"


def per_record_write_sites(path=SERVICE):
    """Where ``AnalyticsService`` in *path* leaves the poll-shaped write
    path: a ``process_measurement`` method; ``_write_points`` called
    from anywhere but ``poll``/``finish``, or inside a loop; and
    ``pub.send`` reached for anywhere but in ``poll`` after its write."""
    sites = []
    (service,) = [
        node
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ClassDef) and node.name == "AnalyticsService"
    ]
    for method in service.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        if method.name == "process_measurement":
            sites.append((method.lineno, "a process_measurement method"))
        looped = {
            id(inner)
            for loop in ast.walk(method)
            if isinstance(loop, (ast.For, ast.While))
            for inner in ast.walk(loop)
        }
        writes = [
            call
            for call in ast.walk(method)
            if isinstance(call, ast.Call) and _called_name(call) == "_write_points"
        ]
        for call in writes:
            if method.name not in ("poll", "finish"):
                sites.append((call.lineno, f"_write_points called from {method.name}"))
            elif id(call) in looped:
                sites.append((call.lineno, "_write_points inside a loop"))
        for node in ast.walk(method):
            if not (
                isinstance(node, ast.Attribute)
                and node.attr == "send"
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "pub"
            ):
                continue
            if method.name != "poll":
                sites.append((node.lineno, f"pub.send in {method.name}"))
            elif not writes or node.lineno < max(call.lineno for call in writes):
                sites.append((node.lineno, "pub.send before the poll's write"))
    return sites


class TestOneWritePath:
    def test_one_write_and_one_publish_per_poll(self):
        offenders = [f"analytics/service.py:{line} {what}" for line, what in per_record_write_sites()]
        assert not offenders, (
            "a per-record write path beside the poll's request:\n  "
            + "\n  ".join(offenders)
        )
        # The guard is about calls that exist.
        source = SERVICE.read_text()
        assert "self._write_points()" in source and "self.pub.send" in source

    def test_the_guard_sees_what_it_guards(self, tmp_path):
        fine = tmp_path / "fine.py"
        fine.write_text(
            "class AnalyticsService:\n"
            '    """process_measurement and pub.send in a docstring."""\n'
            "    def poll(self, max_messages=256):\n"
            "        messages = self.pull.recv_all(max_messages)\n"
            "        enriched = [self._process_message(m) for m in messages]\n"
            "        self._write_points()\n"
            "        send = self.pub.send\n"
            "        for payload in enriched:\n"
            "            send(payload)\n"
            "    def finish(self):\n"
            "        self.poll()\n"
            "        self.aggregator.flush()\n"
            "        self._write_points()\n"
        )
        assert per_record_write_sites(fine) == []
        rogue = tmp_path / "rogue.py"
        rogue.write_text(
            "class AnalyticsService:\n"
            "    def poll(self, max_messages=256):\n"
            "        for message in self.pull.recv_all(max_messages):\n"
            "            self._process_message(message)\n"
            "            self._write_points()\n"
            "    def _process_message(self, message):\n"
            "        self.process_measurement(self._enrich(message))\n"
            "    def process_measurement(self, measurement):\n"
            "        self._write_points([self._raw_point(measurement)])\n"
            "        self.pub.send(measurement)\n"
            "class Elsewhere:\n"
            "    def relay(self):\n"
            "        self.pub.send(b'not the service')\n"
        )
        assert [what for _, what in per_record_write_sites(rogue)] == [
            "_write_points inside a loop",
            "a process_measurement method",
            "_write_points called from process_measurement",
            "pub.send in process_measurement",
        ]
        early = tmp_path / "early.py"
        early.write_text(
            "class AnalyticsService:\n"
            "    def poll(self, max_messages=256):\n"
            "        for message in self.pull.recv_all(max_messages):\n"
            "            self.pub.send(self._process_message(message))\n"
            "        self._write_points()\n"
        )
        assert [what for _, what in per_record_write_sites(early)] == [
            "pub.send before the poll's write"
        ]


#: The record half's point producers: the raw point and the rollups.
PRODUCERS = (SERVICE, SRC / "analytics" / "aggregator.py")


def point_from_tags_sites(paths=PRODUCERS):
    """``Point(`` called with a tags dict — a ``tags=`` keyword or a third
    positional argument — in *paths*: a point identified afresh from its
    tags (a dict, a sort, a tuple) for every record."""
    return [
        (path, node.lineno)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and _called_name(node) == "Point"
        and (len(node.args) > 2 or any(kw.arg == "tags" for kw in node.keywords))
    ]


class TestPointsAreRows:
    def test_producers_key_each_series_once(self):
        offenders = [
            f"{path.relative_to(SRC)}:{lineno} Point( with tags"
            for path, lineno in point_from_tags_sites()
        ]
        assert not offenders, (
            "a point built from a tags dict per record (build the series key "
            "once, then Point.in_series):\n  " + "\n  ".join(offenders)
        )
        # The guard is about producers that exist and build rows.
        assert all("Point.in_series(" in path.read_text() for path in PRODUCERS)

    def test_the_guard_sees_what_it_guards(self, tmp_path):
        fine = tmp_path / "fine.py"
        fine.write_text(
            '"""Point("m", 1, tags={"a": "b"}) in a docstring."""\n'
            "KEY = series_key('latency', {'src_city': 'Auckland'})\n"
            "def row(m):\n"
            "    return Point.in_series(KEY, m.timestamp_ns, {'total_ms': 1.0})\n"
            "def parsed(line):\n"
            "    return Point('m', 1, fields={'v': 1})\n"
        )
        assert point_from_tags_sites([fine]) == []
        rogue = tmp_path / "rogue.py"
        rogue.write_text(
            "def raw(m):\n"
            "    return Point(measurement='latency', timestamp_ns=m.timestamp_ns,\n"
            "                 tags={'src_city': m.src_city}, fields={'v': 1.0})\n"
            "def rollup(pair, stats):\n"
            "    return tsdb.Point('latency_by_asn', 0, {'src_asn': pair[0]}, stats)\n"
        )
        assert point_from_tags_sites([rogue]) == [(rogue, 2), (rogue, 5)]


#: The builder module; its ``StackBuilder.build`` assembles every tier.
BUILDER = SRC / "stack" / "builder.py"
#: What the analytics tier and the durable tier build, whatever the
#: fault profile.
TIER_OWNED = {"ResilienceLayer", "WriteAheadLog", "DurableTsdb"}


def _is_layer(node):
    """Whether *node* is ``resilience`` / ``res`` (bare or as an
    attribute, possibly under ``not``)."""
    while isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        node = node.operand
    return (isinstance(node, ast.Name) and node.id in ("resilience", "res")) or (
        isinstance(node, ast.Attribute) and node.attr in ("resilience", "res")
    )


def unguarded_path_sites(path=SERVICE):
    """Where ``AnalyticsService`` in *path* keeps a second, unguarded
    path: ``resilience`` or ``res`` compared with None, or tested as a
    truth value by a branch."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Compare):
            sides = (node.left, *node.comparators)
            if any(map(_is_layer, sides)) and any(
                isinstance(side, ast.Constant) and side.value is None for side in sides
            ):
                sites.append((node.lineno, "the layer compared with None"))
        elif isinstance(node, (ast.If, ast.IfExp, ast.While)):
            test = node.test
            tested = test.values if isinstance(test, ast.BoolOp) else [test]
            if any(map(_is_layer, tested)):
                sites.append((node.lineno, "a branch on the layer's presence"))
    return sorted(sites)


def tier_under_fault_test_sites(path=BUILDER):
    """A resilience layer, write-ahead log or durable store built under
    a test of ``profile`` or ``injector`` in ``StackBuilder.build`` of
    *path*: the analytics and durable tiers tied to the faults tier."""
    (build,) = [
        node
        for klass in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(klass, ast.ClassDef) and klass.name == "StackBuilder"
        for node in klass.body
        if isinstance(node, ast.FunctionDef) and node.name == "build"
    ]
    return sorted(
        {
            (call.lineno, _called_name(call))
            for branch in ast.walk(build)
            if isinstance(branch, (ast.If, ast.IfExp))
            and _names_in(branch.test) & {"profile", "injector"}
            for call in ast.walk(branch)
            if isinstance(call, ast.Call) and _called_name(call) in TIER_OWNED
        }
    )


class TestTiersCompose:
    def test_the_analytics_tier_has_one_guarded_path(self):
        offenders = [
            f"analytics/service.py:{line} {what}"
            for line, what in unguarded_path_sites()
        ]
        assert not offenders, (
            "a second, unguarded path beside the resilience layer (a service "
            "handed no layer builds a default one):\n  " + "\n  ".join(offenders)
        )
        # The guard is about a layer the service really uses.
        assert "self.resilience" in SERVICE.read_text()

    def test_no_tier_is_built_under_a_test_of_the_fault_profile(self):
        offenders = [
            f"stack/builder.py:{line} {name}("
            for line, name in tier_under_fault_test_sites()
        ]
        assert not offenders, (
            "a tier built only under a fault profile (each builder call "
            "builds its own tier):\n  " + "\n  ".join(offenders)
        )
        assert TIER_OWNED <= _calls_inside(BUILDER, "build")

    def test_the_guard_sees_what_it_guards(self, tmp_path):
        fine = tmp_path / "service.py"
        fine.write_text(
            '"""if resilience is None: in a docstring."""\n'
            "class AnalyticsService:\n"
            "    def __init__(self, resilience=None):\n"
            "        self.resilience = resilience or ResilienceLayer()\n"
            "    def _enrich(self, record):\n"
            "        res = self.resilience\n"
            "        if not res.enrich_breaker.allow(self._now_ns):\n"
            "            return degraded_measurement(record)\n"
        )
        assert unguarded_path_sites(fine) == []
        rogue = tmp_path / "rogue.py"
        rogue.write_text(
            "class AnalyticsService:\n"
            "    def _write_points(self):\n"
            "        if self.resilience is None:\n"
            "            return self.tsdb.write_batch(self._request)\n"
            "    def _enrich(self, record):\n"
            "        res = self.resilience\n"
            "        if res is not None and not res.enrich_breaker.allow(0):\n"
            "            return None\n"
            "        return record if not res else None\n"
        )
        assert unguarded_path_sites(rogue) == [
            (3, "the layer compared with None"),
            (7, "the layer compared with None"),
            (9, "a branch on the layer's presence"),
        ]
        builder = tmp_path / "builder.py"
        builder.write_text(
            "class StackBuilder:\n"
            "    def build(self):\n"
            "        if profile is not None:\n"
            "            store = FlakyTimeSeriesDatabase(store, injector)\n"
            "            if durability is not None:\n"
            "                tsdb = DurableTsdb(store, WriteAheadLog(path))\n"
            "            resilience = ResilienceLayer(seed=self._seed)\n"
            "        if durability is not None:\n"
            "            wal = WriteAheadLog(path)\n"
            "        layer = ResilienceLayer() if injector else None\n"
            "def elsewhere(profile):\n"
            "    if profile:\n"
            "        return ResilienceLayer()\n"
        )
        assert tier_under_fault_test_sites(builder) == [
            (6, "DurableTsdb"),
            (6, "WriteAheadLog"),
            (7, "ResilienceLayer"),
            (10, "ResilienceLayer"),
        ]


class TestOneStoreImage:
    def test_the_log_is_the_only_image_of_the_store(self):
        offenders = [
            f"{path.relative_to(SRC)}:{lineno} {what}"
            for path, lineno, what in second_store_image_sites()
        ]
        assert not offenders, (
            "a second durable image of the TSDB (the write-ahead log is "
            "the only one):\n  " + "\n  ".join(offenders)
        )

    def test_the_legacy_loader_still_reads_old_checkpoints(self):
        """Keep the allowance honest: if the loader goes, so does it."""
        assert '"tsdb_lines"' in LEGACY_LOADER.read_text()

    def test_the_guard_sees_what_it_guards(self, tmp_path):
        (tmp_path / "stack").mkdir()
        loader = tmp_path / "stack" / "stages.py"
        loader.write_text(
            '"""Mentions tsdb_lines and applied_lines in a docstring."""\n'
            "def load_state(self, state):\n"
            '    if "tsdb_lines" in state:\n'
            '        self.wal.compact(image=(0, state["tsdb_lines"]))\n'
        )
        assert second_store_image_sites(tmp_path, loader) == []
        (tmp_path / "stack" / "builder.py").write_text(
            "def _after_checkpoint(self, info):\n"
            "    self.wal.truncate()\n"
            "def state_dict(self):\n"
            '    return {"tsdb_lines": list(self.tsdb.applied_lines)}\n'
        )
        (tmp_path / "rogue.py").write_text(
            "def capture(state, applied_lines):\n"
            '    state["tsdb_lines"] = applied_lines\n'
            "    extra = dict(tsdb_lines=[])\n"
            '    peek = state.get("tsdb_lines")\n'
            "    log.truncate()  # not under stack/: not this guard's\n"
        )
        found = [what for _, _, what in second_store_image_sites(tmp_path, loader)]
        assert sorted(found) == sorted(
            [
                # rogue.py
                "applied_lines",
                '"tsdb_lines" written',
                '"tsdb_lines" outside the loader',
                '"tsdb_lines" written',
                '"tsdb_lines" outside the loader',
                # stack/builder.py
                ".truncate(",
                '"tsdb_lines" written',
                '"tsdb_lines" outside the loader',
                "applied_lines",
            ]
        )


class TestOneShardMode:
    def test_no_mode_switch_in_any_shard_signature(self):
        offenders = [
            f"{path.relative_to(SRC)} {function}({name}=)"
            for path, function, name in shard_mode_parameters()
        ]
        assert not offenders, (
            "an option that selects a second shard mode or transport:\n  "
            + "\n  ".join(offenders)
        )

    def test_one_transport_and_one_stall_detector(self):
        assert calls_named("socketpair") == []
        # The lease and the child's cadence read monotonic_ns; a
        # time.monotonic() is a private deadline beside the lease.
        assert calls_named("monotonic", SRC / "shard") == []

    def test_one_dispatch_seam(self):
        offenders = [
            f"{path.relative_to(SRC)}:{lineno} names {name}"
            for path, lineno, name in seam_inner_sites()
        ]
        assert not offenders, (
            "the batch codec or the wire framer named outside the dispatch "
            "seam (call protocol.encode_dispatch / decode_dispatch):\n  "
            + "\n  ".join(offenders)
        )
        # Both ends of the pipe go through the pair.
        assert "encode_dispatch" in _calls_inside(
            SRC / "shard" / "runtime.py", "_dispatch"
        )
        assert "decode_dispatch" in _calls_inside(
            SRC / "shard" / "worker.py", "shard_child_main"
        )

    def test_four_lifecycle_states(self):
        assert shard_lifecycle_states() == [
            "SHARD_DOWN",
            "SHARD_DRAINED",
            "SHARD_FAILED",
            "SHARD_UP",
        ]

    def test_the_guard_sees_what_it_guards(self, tmp_path):
        (tmp_path / "shard").mkdir()
        (tmp_path / "shard" / "runtime.py").write_text(
            'SHARD_UP = "up"\n'
            'SHARD_SUSPECT = "suspect"\n'
            "POLL_S = 0.05\n"
            "class Supervisor:\n"
            "    def __init__(self, entry, transport_kind='pipe'):\n"
            "        left, right = socket.socketpair()\n"
            "    def wait(self, transport, *, max_inflight=4):\n"
            "        deadline = time.monotonic() + 30.0\n"
            "        now = time.monotonic_ns()\n"
        )
        (tmp_path / "stack").mkdir()
        (tmp_path / "stack" / "builder.py").write_text(
            "def build_sharded_runtime(shards, *, transport='pipe',\n"
            "                          heartbeat_deadline_ms=None): pass\n"
            "def build_live_stack(transport=None): pass\n"
        )
        assert [name for _, _, name in shard_mode_parameters(tmp_path)] == [
            "transport_kind",
            "max_inflight",
            "transport",
            "heartbeat_deadline_ms",
        ]
        assert len(calls_named("socketpair", tmp_path)) == 1
        assert len(calls_named("monotonic", tmp_path / "shard")) == 1
        assert shard_lifecycle_states(tmp_path) == ["SHARD_SUSPECT", "SHARD_UP"]
        (tmp_path / "shard" / "protocol.py").write_text(
            "def encode_dispatch(seq, burst):\n"
            "    return encode_message(encode_batch(seq, burst))\n"
        )
        (tmp_path / "shard" / "runtime.py").write_text(
            '"""encode_batch in a docstring."""\n'
            "from repro.shard.wire import encode_message\n"
            "def _dispatch(self, handle, triples):\n"
            "    self._send(handle, protocol.encode_batch(seq, triples))\n"
        )
        assert [name for _, _, name in seam_inner_sites(tmp_path)] == [
            "encode_message",
            "encode_batch",
        ]
        assert "encode_dispatch" not in _calls_inside(
            tmp_path / "shard" / "runtime.py", "_dispatch"
        )


class TestOneBodyPerHotFunction:
    def test_no_tracer_and_no_span_call(self):
        offenders = [
            f"{path.relative_to(SRC)}:{lineno} {name}"
            for path, lineno, name in second_timing_sites()
        ]
        assert not offenders, (
            "a second timing mechanism (StageGraph.process is the one "
            "timing point):\n  " + "\n  ".join(offenders)
        )

    def test_one_worker_body_builds_the_tracker(self):
        assert tracker_construction_files() == [SRC / "core" / "worker.py"]

    def test_the_burst_loop_pays_per_frame_only_for_the_frame(self):
        offenders = [
            f"{path.relative_to(SRC)}:{lineno} {what}"
            for path, lineno, what in rx_path_sites()
        ]
        assert not offenders, (
            "per-frame bookkeeping on the rx path (settle per burst; "
            "rows, not buffer objects; one reader of the rings):\n  "
            + "\n  ".join(offenders)
        )
        # The guard is about code that exists.
        assert {"settle", "settle_burst", "_extract_tuple", "header_pass"} <= (
            _calls_inside(NIC, "receive_burst")
        )
        assert {"rx_burst", "process_burst", "give_back"} <= _calls_inside(
            SRC / "core" / "worker.py", "poll"
        )

    def test_the_rx_guard_sees_what_it_guards(self, tmp_path):
        (tmp_path / "dpdk").mkdir()
        nic = tmp_path / "dpdk" / "nic.py"
        nic.write_text(
            '"""pool.alloc( and ring.enqueue( in a docstring."""\n'
            "def receive_burst(self, packets):\n"
            "    room = [queue.ring.free_space for queue in self.queues]\n"
            "    for packet in packets:\n"
            "        parsed = header_pass(packet.data, 0)\n"
            "        if parsed.__class__ is ParsedPacket:\n"
            "            rss_hash = hash_tuple(*parsed[:4])\n"
            "        else:\n"
            "            extracted = self._extract_tuple(packet.data)\n"
            "        rows[queue_id].append(make_row((0, rss_hash, parsed)))\n"
            "    self.pool.settle(taken)\n"
            "    for queue_id, count in queued.items():\n"
            "        counted[queue_id] = count\n"
        )
        assert rx_path_sites(tmp_path, nic) == []
        nic.write_text(
            "def receive_burst(self, packets):\n"
            "    for packet in packets:\n"
            "        extracted = self._extract_tuple(packet.data)\n"
            "        mbuf = self.pool.alloc(packet.data)\n"
            "        ring = self.queues[0].ring\n"
            "        if ring.is_full:\n"
            "            mbuf.free()\n"
            "        ring.enqueue(Mbuf(data=packet.data))\n"
        )
        (tmp_path / "tool.py").write_text(
            "def process_burst(self, rows): pass\n"
            "def peek(nic):\n"
            "    key = NicPort._extract_tuple(data)\n"
            "    return nic.rx_burst(0) + nic.queues[0].ring.dequeue_burst(4)\n"
        )
        (tmp_path / "worker.py").write_text("def process_burst(self, rows): pass\n")
        found = [(path.name, what) for path, _, what in rx_path_sites(tmp_path, nic)]
        assert sorted(found) == sorted([
            ("nic.py", "a pool/ring call in the frame loop"),  # pool.alloc
            ("nic.py", "a pool/ring call in the frame loop"),  # ring.enqueue
            ("nic.py", "_extract_tuple for an accepted frame"),
            ("nic.py", "alloc( — a buffer object per frame"),
            ("nic.py", "Mbuf( — a buffer object per frame"),
            ("tool.py", "_extract_tuple for an accepted frame"),
            ("tool.py", "rx_burst( — a second ring reader"),
            ("tool.py", "dequeue_burst( — a second ring reader"),
            ("worker.py", "a second process_burst"),
        ])

    def test_one_header_walker_on_the_packet_path(self):
        # dpdk/nic.py keeps struct for _extract_tuple, the hardware-style
        # tuple read of frames the header pass rejected.
        assert struct_import_files() == [SRC / "dpdk" / "nic.py"]
        assert parser_construction_files() == [
            SRC / "core" / "worker.py",
            SRC / "dpdk" / "nic.py",
            SRC / "overload" / "classify.py",
        ]

    def test_the_guard_sees_what_it_guards(self, tmp_path):
        (tmp_path / "rogue.py").write_text(
            "def poll(self, tracer=None):\n"
            "    with self._tracer.span('worker.poll'):\n"
            "        make(tracer=tracer)\n"
            "    return HandshakeTracker(config=None)\n"
        )
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "peek.py").write_text(
            "from struct import Struct\n"
            "import os, struct as st\n"
            "walker = PacketParser(max_vlan_tags=0)\n"
        )
        (tmp_path / "net").mkdir()
        (tmp_path / "net" / "tool.py").write_text(
            "import struct\nparser = PacketParser()\n"
        )
        assert struct_import_files(tmp_path, packages=("core",)) == [
            tmp_path / "core" / "peek.py"
        ]
        assert parser_construction_files(tmp_path) == [tmp_path / "core" / "peek.py"]
        (tmp_path / "fine.py").write_text(
            '"""A tracer in a docstring; HandshakeTracker( in one too."""\n'
            "width = table.span  # an attribute read, not a call\n"
        )
        names = [name for _, _, name in second_timing_sites(tmp_path)]
        assert sorted(names) == [".span(", "_tracer", "tracer", "tracer", "tracer"]
        assert tracker_construction_files(tmp_path) == [tmp_path / "rogue.py"]


class TestOneDriver:
    def test_no_run_packets_or_service_finish_outside_the_stack(self):
        offenders = [
            f"{path.relative_to(SRC)}:{lineno} calls {name}("
            for path, lineno, name in second_driver_call_sites()
        ]
        assert not offenders, (
            "a second driver for an assembled stack (use RuruStack.run):\n  "
            + "\n  ".join(offenders)
        )

    def test_no_new_runtime_harness_or_ledger_class(self):
        offenders = [
            f"{path.relative_to(SRC)}:{lineno} defines class {name}"
            for path, lineno, name in parallel_mechanism_classes()
        ]
        assert not offenders, (
            "a parallel runtime/harness/ledger (extend the allow-list only "
            "with a reason):\n  " + "\n  ".join(offenders)
        )

    def test_one_function_cuts_a_packet_stream(self):
        offenders = [
            f"{path.relative_to(SRC)}:{lineno} {what}"
            for path, lineno, what in second_cutter_sites()
        ]
        assert not offenders, (
            "a second batch cutter (call repro.core.feed.drive / batches):\n  "
            + "\n  ".join(offenders)
        )
        # The allowance is for a cutter that exists.
        assert second_cutter_sites(cutter=None), "core/feed.py no longer cuts?"

    def test_the_sharded_runtime_has_no_feed_loop_and_no_runner_of_its_own(self):
        runtime = ast.parse((SRC / "shard" / "runtime.py").read_text())
        methods = {
            item.name
            for node in ast.walk(runtime)
            if isinstance(node, ast.ClassDef) and node.name == "ShardedRuntime"
            for item in node.body
            if isinstance(item, ast.FunctionDef)
        }
        assert {"offer", "drain"} <= methods
        assert "run" not in methods
        assert not (SRC / "scenarios" / "shard_runner.py").exists()

    def test_the_cutter_guard_sees_what_it_guards(self, tmp_path):
        (tmp_path / "core").mkdir()
        (tmp_path / "core" / "feed.py").write_text(
            "def batches(packets, size):\n"
            "    batch = []\n"
            "    for packet in packets:\n"
            "        if len(batch) >= size:\n"
            "            yield batch\n"
            "            batch = []\n"
            "        batch.append(packet)\n"
        )
        (tmp_path / "rogue.py").write_text(
            '"""len(batch) >= size, packets[i : i + n] in a docstring."""\n'
            "def run(self, packets, size):\n"
            "    batch = []\n"
            "    for packet in packets:\n"
            "        batch.append(packet)\n"
            "        if size <= len(batch):\n"
            "            self.offer(batch)\n"
            "            batch = []\n"
            "def trial(packets, n):\n"
            "    return [packets[i : i + n] for i in range(0, len(packets), n)]\n"
            "def rounds(packets, n):\n"
            "    for start in range(0, len(packets), n):\n"
            "        yield packets[start : start + n]\n"
        )
        (tmp_path / "fine.py").write_text(
            "def evict(items):\n"
            "    for index in range(len(items) - 1, -1, -1):\n"
            "        del items[index]\n"
            "def collect(records, out):\n"
            "    for record in records:\n"
            "        out.append(record)\n"
            "    return len(out) >= 1\n"
            "def window(data, i, n):\n"
            "    return data[i : i + n]\n"
        )
        found = second_cutter_sites(tmp_path, tmp_path / "core" / "feed.py")
        assert [(path.name, what) for path, _, what in found] == [
            ("rogue.py", "len() of the batch it fills"),
            ("rogue.py", "a list sliced by a stride"),
            ("rogue.py", "a list sliced by a stride"),
        ]

    def test_the_guard_sees_what_it_guards(self, tmp_path):
        """Keep the guard honest: it must trip on the shapes it bans
        and the allow-listed classes must still exist."""
        (tmp_path / "rogue.py").write_text(
            "class SideRuntime: pass\n"
            "class BatchLedger: pass\n"
            "def go(stack, service):\n"
            "    stack.pipeline.run_packets([])\n"
            "    stack.service.finish()\n"
            "    service.finish()\n"
            "    map_view.finish()\n"
        )
        calls = [name for _, _, name in second_driver_call_sites(tmp_path)]
        assert calls == ["run_packets", "finish", "finish"]
        classes = [name for _, _, name in parallel_mechanism_classes(tmp_path)]
        assert classes == ["SideRuntime", "BatchLedger"]
        defined = {
            node.name
            for path in SRC.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)
        }
        assert PARALLEL_ALLOWED <= defined


class TestNoDirectAssemblyOutsideStack:
    def test_guarded_constructors_only_called_from_the_builder(self):
        offenders = [
            f"{path.relative_to(SRC)}:{lineno} calls {name}("
            for path, lineno, name in guarded_call_sites()
            if path not in ALLOWED
        ]
        assert not offenders, (
            "direct stack assembly outside repro.stack.builder:\n  "
            + "\n  ".join(offenders)
        )

    def test_the_builder_itself_still_assembles_the_stack(self):
        """Keep the guard honest: if the components get renamed, the
        allow-list and GUARDED set must be updated, not left stale."""
        builder_calls = {
            name
            for path, _, name in guarded_call_sites()
            if path in ALLOWED
        }
        assert builder_calls == GUARDED


#: The module that turns flags into a spec, and what it may not name.
CLI = SRC / "cli.py"
CLI_BANNED = re.compile(
    r"StackBuilder|build_\w+_stack|build_sharded_runtime|AucklandLaScenario"
    r"|TrafficGenerator|\w*Injector|run_chaos|RecoveryHarness"
)
#: Where a spec becomes a stack: the builder, and the runner's episode.
RUNNER = SRC / "scenarios" / "runner.py"
STACK_CALLS = re.compile(r"StackBuilder|build_\w+_stack")


def cli_wiring_sites(path=CLI):
    """Every name, attribute or import of a banned constructor in
    *path*, and every ``.error(`` call on something named a parser."""
    sites = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Call) and _called_name(node) == "error":
            if "parser" in (_receiver_name(node) or ""):
                sites.append((node.lineno, "parser.error("))
            continue
        else:
            continue
        if CLI_BANNED.fullmatch(name):
            sites.append((node.lineno, name))
    return sites


def stack_construction_sites(root=SRC, builder=BUILDER, runner=RUNNER):
    """``StackBuilder()`` / ``build_*_stack(`` calls outside the builder
    and outside the runner's ``Episode`` class."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        if path == builder:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = {
            id(call)
            for klass in ast.walk(tree)
            if path == runner and isinstance(klass, ast.ClassDef) and klass.name == "Episode"
            for call in ast.walk(klass)
        }
        sites.extend(
            (path, node.lineno, _called_name(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and STACK_CALLS.fullmatch(_called_name(node) or "")
            and id(node) not in allowed
        )
    return sites


class TestOneConfigurationPath:
    def test_the_cli_builds_no_stack_and_refuses_nothing_itself(self):
        offenders = [f"cli.py:{line} {name}" for line, name in cli_wiring_sites()]
        assert not offenders, (
            "the CLI wiring a stack or refusing a flag itself (flags -> "
            "ScenarioSpec -> Episode; refusals are the spec's and build()'s):\n  "
            + "\n  ".join(offenders)
        )
        # The guard is about a CLI that exists and runs episodes.
        assert "Episode" in CLI.read_text()

    def test_only_the_episode_builds_a_stack(self):
        offenders = [
            f"{path.relative_to(SRC)}:{lineno} calls {name}("
            for path, lineno, name in stack_construction_sites()
        ]
        assert not offenders, (
            "a stack built outside the runner's Episode (a second "
            "configuration path):\n  " + "\n  ".join(offenders)
        )

    def test_the_guard_sees_what_it_guards(self, tmp_path):
        cli = tmp_path / "cli.py"
        cli.write_text(
            '"""StackBuilder, run_chaos and parser.error( in a docstring."""\n'
            "from repro.stack import build_chaos_stack, StackBuilder\n"
            "from repro.traffic.scenarios import AucklandLaScenario as A\n"
            "def cmd(args):\n"
            "    stack = repro.stack.build_durable_stack(args.state_dir)\n"
            "    glitch = FirewallGlitchInjector()\n"
            "    args.shard_parser.error('--shards does not take --profile')\n"
            "    return run_chaos(args.profile), Episode(spec)\n"
        )
        assert sorted(cli_wiring_sites(cli)) == [
            (2, "StackBuilder"), (2, "build_chaos_stack"), (3, "AucklandLaScenario"),
            (5, "build_durable_stack"), (6, "FirewallGlitchInjector"),
            (7, "parser.error("), (8, "run_chaos"),
        ]
        (tmp_path / "stack").mkdir()
        (tmp_path / "scenarios").mkdir()
        (tmp_path / "stack" / "builder.py").write_text(
            "def build_live_stack():\n    return StackBuilder().build()\n"
        )
        (tmp_path / "scenarios" / "runner.py").write_text(
            "class Episode:\n"
            "    def _build_stack(self):\n"
            "        return StackBuilder().build()\n"
            "def replay(spec):\n"
            "    return StackBuilder().analytics().build()\n"
        )
        (tmp_path / "harness.py").write_text(
            "def trial(spec):\n"
            "    return build_durable_stack(spec.durable.state_dir), Episode(spec)\n"
        )
        found = stack_construction_sites(
            tmp_path, tmp_path / "stack" / "builder.py", tmp_path / "scenarios" / "runner.py"
        )
        assert [(path.name, line, name) for path, line, name in found] == [
            ("cli.py", 5, "build_durable_stack"),
            ("harness.py", 2, "build_durable_stack"),
            ("runner.py", 5, "StackBuilder"),
        ]
        # The allowance is for an episode that exists and builds.
        assert "StackBuilder" in _calls_inside(RUNNER, "_build_stack")


#: Where a drained run's books are read, never counted: the chaos
#: report's package and the scenario runner.
BOOK_READERS = (SRC / "faults", SRC / "scenarios" / "runner.py")
#: The counters ``count_books`` and the sharded parent's books read, by
#: attribute name.
TIER_COUNTERS = {
    "injected", "total_restarts", "retries", "degraded_published", "points_written",
    "points_lost", "opened_count", "enriched_count", "conservation_ledger",
    "total_points", "offered", "admitted", "mq_offered", "truncated",
    "ring_displacements", "level_max", "shed_total", "shed_counts", "shed_ratio",
    "stats", "stats_snapshot", "frontend_received", "frontend_degraded",
    "rerouted_packets", "shed_by_class",
}


def tier_counter_reads(paths=BOOK_READERS):
    """Every ``<x>.<counter>`` in *paths* (files, or directories walked)
    whose ``<x>`` is not ``self``: a tier's counter read beside the
    books instead of off them."""
    files = [
        found
        for path in paths
        for found in (sorted(path.rglob("*.py")) if path.is_dir() else [path])
    ]
    return [
        (path, node.lineno, node.attr)
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr in TIER_COUNTERS
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]


class TestOneFoldPerRun:
    def test_the_books_are_counted_once(self):
        offenders = [
            f"{path.relative_to(SRC)}:{lineno} reads .{name}"
            for path, lineno, name in tier_counter_reads()
        ]
        assert not offenders, (
            "a tier counter read outside count_books (read the drained "
            "run's books, Episode.counts / DrainReport.counts):\n  "
            + "\n  ".join(offenders)
        )
        # The guard is about books that exist and are read.
        assert "def count_books(" in BUILDER.read_text()
        assert "episode.counts" in (SRC / "faults" / "chaos.py").read_text()
        assert "episode.counts" in RUNNER.read_text()

    def test_the_guard_sees_what_it_guards(self, tmp_path):
        fine = tmp_path / "fine.py"
        fine.write_text(
            '"""stack.injector.injected and resilience.retries in a docstring."""\n'
            "class FaultInjector:\n"
            "    def decide(self, key):\n"
            "        self.injected[key] = self.injected.get(key, 0) + 1\n"
            "def render(episode):\n"
            "    counts = episode.counts\n"
            "    return counts['resilience.retries'], episode.stack.resilience.breakers\n"
        )
        assert tier_counter_reads([fine]) == []
        (tmp_path / "faults").mkdir()
        rogue = tmp_path / "faults" / "chaos.py"
        rogue.write_text(
            "def of(episode):\n"
            "    stack = episode.stack\n"
            "    faults = dict(stack.injector.injected)\n"
            "    retries, restarts = stack.resilience.retries, stack.supervisor.total_restarts\n"
            "    offered = [stack.overload.offered[k] for k in CLASSES]\n"
            "    return stack.pipeline.stats_snapshot().measurements, faults, offered\n"
        )
        found = tier_counter_reads([tmp_path / "faults", fine])
        assert sorted((path.name, line, name) for path, line, name in found) == [
            ("chaos.py", 3, "injected"),
            ("chaos.py", 4, "retries"),
            ("chaos.py", 4, "total_restarts"),
            ("chaos.py", 5, "offered"),
            ("chaos.py", 6, "stats_snapshot"),
        ]


#: What a shard's state on disk is made of: a file, an atomic rename,
#: the checkpointer and the log.
SHARD_DISK_CALLS = {"open", "Checkpointer", "WriteAheadLog"}


def shard_disk_sites(root=SRC):
    """Under ``shard/``: an import of ``repro.durability`` and a call to
    ``open(`` (``os.open`` too), ``os.replace``, ``Checkpointer(`` or
    ``WriteAheadLog(``."""
    sites = []
    for path in sorted((root / "shard").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            elif isinstance(node, ast.Call):
                name = _called_name(node)
                if name in SHARD_DISK_CALLS or (
                    name == "replace" and _receiver_name(node) == "os"
                ):
                    sites.append((path, node.lineno, f"{name}("))
                continue
            else:
                continue
            if any(
                module == "repro.durability" or module.startswith("repro.durability.")
                for module in modules
            ):
                sites.append((path, node.lineno, "imports repro.durability"))
    return sites


class TestShardStateLivesInTheParent:
    def test_no_shard_module_keeps_state_on_disk(self):
        offenders = [
            f"{path.relative_to(SRC)}:{lineno} {what}"
            for path, lineno, what in shard_disk_sites()
        ]
        assert not offenders, (
            "a shard's recovery state on disk (a restart loads the parent's "
            "last checkpoint reply plus its acked counts):\n  "
            + "\n  ".join(offenders)
        )
        # The guard is about a restart that exists and reads the parent.
        assert "handle.checkpoint" in (SRC / "shard" / "runtime.py").read_text()

    def test_the_guard_sees_what_it_guards(self, tmp_path):
        (tmp_path / "shard").mkdir()
        (tmp_path / "shard" / "fine.py").write_text(
            '"""Once: open( a ShardStateStore, os.replace, a WriteAheadLog(."""\n'
            "import os\n"
            "from repro.shard import protocol\n"
            "def restart(handle, name):\n"
            "    label = name.replace('-', '_')\n"
            "    return protocol.encode_json(b'restore', {'state': handle.checkpoint})\n"
        )
        assert shard_disk_sites(tmp_path) == []
        (tmp_path / "shard" / "rogue.py").write_text(
            "import repro.durability.wal\n"
            "from repro.durability.shardstate import ShardStateStore\n"
            "from repro import durability\n"
            "def checkpoint(self, state, path):\n"
            "    with open(path + '.tmp', 'wb') as handle:\n"
            "        handle.write(state)\n"
            "    os.replace(path + '.tmp', path)\n"
            "    fd = os.open(path, os.O_RDONLY)\n"
            "    self.log = repro.durability.wal.WriteAheadLog(path)\n"
            "    return Checkpointer(state_dir=path, capture=dict)\n"
        )
        found = [(line, what) for _, line, what in shard_disk_sites(tmp_path)]
        assert sorted(found) == [
            (1, "imports repro.durability"),
            (2, "imports repro.durability"),
            (3, "imports repro.durability"),
            (5, "open("),
            (7, "replace("),
            (8, "open("),
            (9, "WriteAheadLog("),
            (10, "Checkpointer("),
        ]


#: Under ``shard/``, the only functions that read a shard pipe: the
#: parent's pump and the child's loop.
PIPE_READERS = {
    "runtime.py": {"ShardedRuntime._await", "ShardedRuntime._absorb"},
    "worker.py": {"shard_child_main"},
}


def _call_owners(tree):
    """Each call in *tree* → the qualified name of the innermost
    function (``Class.method``) around it; None at module level."""
    owners = {}

    def visit(node, scope, function):
        for child in ast.iter_child_nodes(node):
            inner_scope, inner_function = scope, function
            if isinstance(child, ast.ClassDef):
                inner_scope = f"{scope}{child.name}."
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner_function = f"{scope}{child.name}"
                inner_scope = f"{inner_function}."
            elif isinstance(child, ast.Call):
                owners[child] = function
            visit(child, inner_scope, inner_function)

    visit(tree, "", None)
    return owners


def second_parent_sites(root=SRC):
    """A ``ShardSupervisor`` named, imported or defined anywhere; a
    ``fork`` called outside ``shard/runtime.py``; a ``.recv(`` or
    ``.recv_all(`` called under ``shard/`` outside :data:`PIPE_READERS`."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        owner = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, (ast.Attribute, ast.ClassDef, ast.alias)):
                name = getattr(node, "attr", None) or node.name
            else:
                continue
            if name == "ShardSupervisor":
                sites.append((path, node.lineno, "ShardSupervisor"))
        for call, function in _call_owners(tree).items():
            name = _called_name(call)
            if name == "fork" and owner != "shard/runtime.py":
                sites.append((path, call.lineno, "fork("))
            if (
                name in ("recv", "recv_all")
                and isinstance(call.func, ast.Attribute)
                and owner.startswith("shard/")
                and function not in PIPE_READERS.get(path.name, ())
            ):
                sites.append((path, call.lineno, f".{name}( in {function}"))
    return sorted(sites, key=lambda site: (str(site[0]), site[1], site[2]))


class TestOneShardParent:
    def test_one_parent_reads_every_pipe_through_one_pump(self):
        offenders = [
            f"{path.relative_to(SRC)}:{lineno} {what}"
            for path, lineno, what in second_parent_sites()
        ]
        assert not offenders, (
            "a second shard parent: read a shard pipe only in "
            "ShardedRuntime._await / _absorb, fork only in shard/runtime.py:\n  "
            + "\n  ".join(offenders)
        )
        # The guard is about a pump and a fork that exist.
        runtime = SRC / "shard" / "runtime.py"
        assert "recv" in _calls_inside(runtime, "_await")
        assert "recv_all" in _calls_inside(runtime, "_absorb")
        assert "fork" in _calls_inside(runtime, "_spawn")
        assert not (SRC / "shard" / "supervisor.py").exists()

    def test_the_guard_sees_what_it_guards(self, tmp_path):
        (tmp_path / "shard").mkdir()
        (tmp_path / "shard" / "runtime.py").write_text(
            '"""Once ShardSupervisor, .recv( and os.fork() in a docstring."""\n'
            "import os\n"
            "class ShardedRuntime:\n"
            "    def _await(self, handle, done):\n"
            "        return handle.transport.recv(timeout=0.05)\n"
            "    def _absorb(self, handle):\n"
            "        return [m for m in handle.transport.recv_all()]\n"
            "    def _spawn(self, handle):\n"
            "        return os.fork()\n"
            "    def drain_shard(self, handle):\n"
            "        return handle.transport.recv(timeout=0.05)\n"
        )
        (tmp_path / "shard" / "worker.py").write_text(
            "def shard_child_main(transport, shard_id):\n"
            "    return transport.recv(timeout=0.01)\n"
        )
        (tmp_path / "mq").mkdir()
        (tmp_path / "mq" / "socket.py").write_text(
            "def poll(sock):\n"
            "    return sock.recv(0), sock.recv_all()\n"
        )
        assert [
            (path.name, line, what) for path, line, what in second_parent_sites(tmp_path)
        ] == [("runtime.py", 11, ".recv( in ShardedRuntime.drain_shard")]
        (tmp_path / "shard" / "supervisor.py").write_text(
            "import os\n"
            "from repro.shard.heartbeat import FailureDetector\n"
            "class ShardSupervisor:\n"
            "    def _spawn(self, handle):\n"
            "        return os.fork()\n"
            "    def declare_down(self, handle):\n"
            "        for message in handle.transport.recv_all():\n"
            "            def late(transport=handle.transport):\n"
            "                return transport.recv()\n"
        )
        (tmp_path / "stack").mkdir()
        (tmp_path / "stack" / "builder.py").write_text(
            "from repro.shard.supervisor import ShardSupervisor\n"
            "def build(shards):\n"
            "    return shard.ShardSupervisor(shards)\n"
        )
        assert [
            (path.name, line, what) for path, line, what in second_parent_sites(tmp_path)
        ] == [
            ("runtime.py", 11, ".recv( in ShardedRuntime.drain_shard"),
            ("supervisor.py", 3, "ShardSupervisor"),
            ("supervisor.py", 5, "fork("),
            ("supervisor.py", 7, ".recv_all( in ShardSupervisor.declare_down"),
            ("supervisor.py", 9, ".recv( in ShardSupervisor.declare_down.late"),
            ("builder.py", 1, "ShardSupervisor"),
            ("builder.py", 3, "ShardSupervisor"),
        ]
