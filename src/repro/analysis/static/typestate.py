"""Resource-lifecycle pass (``--strict``, rules ``typestate-order``,
``leaked-resource``, ``use-after-close``).

The tree now runs real substrates whose objects carry a protocol: an
:class:`~repro.backends.base.ExecutionBackend` must see ``bind`` →
``on_walks_seeded`` → ``advance``\\* → ``close``; a
``shared_memory.SharedMemory`` block must be released on *every* path,
including the exception edges; an ``EventBus`` must have its observers
attached before emission starts or they silently miss events; a
``ServeSession`` serves (``admit`` → ``run`` → ``complete``).  Each
protocol is a declarative state machine in :data:`PROTOCOLS`; the pass
abstract-interprets every function body, tracking the state set of each
locally constructed protocol object, and flags:

``typestate-order``
    A protocol method invoked from a state that does not allow it
    (``advance`` before ``bind``/``on_walks_seeded``, ``subscribe`` to
    an event type already emitted on that bus, ``complete`` before
    ``run``).  Only *definite* violations fire: after a branch merge
    the call is allowed if any merged state allows it.

``use-after-close``
    A protocol method invoked when the object can only be in its
    terminal state (``advance`` after ``close``).  Observation methods
    outside the transition table (``timings()``) stay legal.

``leaked-resource``
    A ``SharedMemory(create=True)`` acquisition that is not *dominated*
    by a release on the exception edges: either a plain local whose
    enclosing ``try`` has no ``close``/``unlink`` in a handler or
    finalizer, or a block stored into an owning ``self`` container
    whose class has no releasing ``close()``, or — the multiprocess
    bug shape — an acquiring method that keeps executing fallible
    calls (further ``self.m()`` setup steps) after the first block
    exists, outside any ``try`` whose handler/finalizer releases the
    blocks.  Exception-edge reasoning uses
    :func:`~repro.analysis.static.dataflow.try_scopes`.

The state tracking is intraprocedural by design — cross-function object
lifecycles are the engine's (tested) domain; what slips through review
is exactly the local misuse this pass pins.  The leak analysis is
interprocedural within a class: a method that calls an acquiring helper
(``self._shared_array``) inherits the acquisition obligation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.static.dataflow import (
    AbstractInterpreter,
    FunctionScope,
    ModuleInfo,
    SymbolTable,
    TryRegion,
    canonical_name,
    dotted,
    import_aliases,
    iter_own_nodes,
    try_scopes,
)
from repro.analysis.static.findings import Finding

PASS_NAME = "typestate"

RULE_TYPESTATE_ORDER = "typestate-order"
RULE_LEAKED_RESOURCE = "leaked-resource"
RULE_USE_AFTER_CLOSE = "use-after-close"


@dataclass(frozen=True)
class Protocol:
    """One declarative lifecycle state machine.

    A class is governed when it inherits ``base`` over the analyzed
    tree, or its name ends with ``suffix`` *and* it defines every
    ``anchors`` method (directly or via MRO) — the opt-in that keeps
    convention matching from capturing unrelated classes.  Methods not
    in ``transitions`` are observations and never checked.
    """

    name: str
    base: str
    suffix: str
    anchors: FrozenSet[str]
    initial: str
    #: method -> (states allowing the call, state after the call)
    transitions: Mapping[str, Tuple[FrozenSet[str], str]]
    terminal: Optional[str] = None


PROTOCOLS: Tuple[Protocol, ...] = (
    Protocol(
        name="ExecutionBackend",
        base="ExecutionBackend",
        suffix="Backend",
        anchors=frozenset({"bind", "close"}),
        initial="new",
        transitions={
            "bind": (
                frozenset({"new", "bound", "seeded", "advancing"}),
                "bound",
            ),
            "on_walks_seeded": (frozenset({"bound"}), "seeded"),
            "advance": (frozenset({"seeded", "advancing"}), "advancing"),
            "close": (
                frozenset({"new", "bound", "seeded", "advancing", "closed"}),
                "closed",
            ),
        },
        terminal="closed",
    ),
    Protocol(
        name="SharedMemory",
        base="SharedMemory",
        suffix="SharedMemory",
        anchors=frozenset(),
        initial="open",
        transitions={
            "close": (frozenset({"open", "closed"}), "closed"),
            "unlink": (frozenset({"open", "closed"}), "unlinked"),
        },
        terminal="unlinked",
    ),
    Protocol(
        name="ServeSession",
        base="ServeSession",
        suffix="ServeSession",
        anchors=frozenset({"run"}),
        initial="new",
        transitions={
            "admit": (frozenset({"new", "admitting"}), "admitting"),
            "run": (frozenset({"new", "admitting", "serving"}), "serving"),
            "complete": (frozenset({"serving"}), "completed"),
        },
        terminal="completed",
    ),
)

#: EventBus is convention-tracked separately: its "state" is the set of
#: event types already emitted, not a scalar machine state.
_BUS = "EventBus"

#: method names that release an acquired resource when they appear in a
#: ``try`` handler or finalizer.
_CLEANUP_METHODS = frozenset(
    {"close", "unlink", "shutdown", "release", "terminate"}
)

#: method names a resource-owning class may use for its releasing hook.
_OWNER_CLEANUP = frozenset({"close", "shutdown", "release", "teardown"})


# ---------------------------------------------------------------------------
# Protocol matching
# ---------------------------------------------------------------------------

def _class_methods(table: SymbolTable, name: str) -> Set[str]:
    methods: Set[str] = set()
    for cls in table.mro(name):
        symbol = table.classes.get(cls)
        if symbol is not None:
            methods.update(symbol.methods)
    return methods


def protocol_of(table: SymbolTable, class_name: str) -> Optional[Protocol]:
    """The protocol governing ``class_name``, if any."""
    for proto in PROTOCOLS:
        if class_name == proto.base or table.inherits_from(
            class_name, proto.base
        ):
            return proto
        if class_name.endswith(proto.suffix):
            if class_name in table.classes:
                if proto.anchors <= _class_methods(table, class_name):
                    return proto
            else:
                # Imported from outside the analyzed tree: convention
                # match only (covers shared_memory.SharedMemory).
                return proto
    return None


@dataclass(frozen=True)
class TSValue:
    """Abstract value: protocol name + set of possible machine states.

    For ``EventBus`` values, ``states`` holds the event-type names
    already emitted instead of machine states.
    """

    proto: str
    states: FrozenSet[str]


class _LifecycleInterp(AbstractInterpreter[Optional[TSValue]]):
    """Tracks protocol objects through one function body."""

    def __init__(
        self,
        module: ModuleInfo,
        table: SymbolTable,
        aliases: Dict[str, str],
        qualname: str,
    ) -> None:
        super().__init__()
        self.module = module
        self.table = table
        self.aliases = aliases
        self.qualname = qualname
        self.findings: List[Finding] = []
        self._reported: Set[Tuple[int, str]] = set()

    # -- domain ---------------------------------------------------------
    def top(self) -> Optional[TSValue]:
        return None

    def merge(
        self, a: Optional[TSValue], b: Optional[TSValue]
    ) -> Optional[TSValue]:
        if a is None or b is None or a.proto != b.proto:
            return None
        return TSValue(a.proto, a.states | b.states)

    def on_assign(
        self,
        target: ast.expr,
        value: Optional[TSValue],
        node: ast.stmt,
    ) -> None:
        key = self._key(target)
        if key is not None:
            self.env[key] = value

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _key(node: ast.expr) -> Optional[str]:
        """Env key of a trackable reference: ``x`` or ``self.x``."""
        if isinstance(node, ast.Name):
            return node.id
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return f"self.{node.attr}"
        return None

    def _report(self, line: int, rule: str, message: str) -> None:
        if (line, rule) in self._reported:
            return
        self._reported.add((line, rule))
        self.findings.append(
            Finding(self.module.rel, line, rule, message, PASS_NAME)
        )

    def _constructed(self, call: ast.Call) -> Optional[TSValue]:
        name = canonical_name(dotted(call.func), self.aliases)
        simple = name.rsplit(".", 1)[-1]
        if not simple:
            return None
        if simple == _BUS or name.endswith(f".{_BUS}"):
            return TSValue(_BUS, frozenset())
        proto = protocol_of(self.table, simple)
        if proto is None:
            return None
        return TSValue(proto.name, frozenset({proto.initial}))

    # -- transitions ----------------------------------------------------
    def _bus_op(self, call: ast.Call, key: str, value: TSValue) -> None:
        assert isinstance(call.func, ast.Attribute)
        method = call.func.attr
        if method == "emit":
            event = "<event>"
            if call.args and isinstance(call.args[0], ast.Call):
                event = dotted(call.args[0].func).rsplit(".", 1)[-1]
            self.env[key] = TSValue(_BUS, value.states | {event})
            return
        if method == "subscribe" and call.args:
            event = dotted(call.args[0]).rsplit(".", 1)[-1]
            if event in value.states:
                self._report(
                    call.lineno,
                    RULE_TYPESTATE_ORDER,
                    f"'{self.qualname}' subscribes to '{event}' on a bus "
                    f"that already emitted it; the subscriber missed "
                    "events — register before the first emit",
                )
        elif method in ("attach", "observing") and value.states:
            emitted = ", ".join(sorted(value.states))
            self._report(
                call.lineno,
                RULE_TYPESTATE_ORDER,
                f"'{self.qualname}' attaches an observer after the bus "
                f"already emitted {emitted}; attach every observer "
                "before emission starts",
            )

    def _transition(self, call: ast.Call, key: str, value: TSValue) -> None:
        assert isinstance(call.func, ast.Attribute)
        method = call.func.attr
        proto = next(p for p in PROTOCOLS if p.name == value.proto)
        spec = proto.transitions.get(method)
        if spec is None:
            return  # observation method: always legal
        allowed, nxt = spec
        if value.states & allowed:
            self.env[key] = TSValue(
                value.proto,
                frozenset(
                    nxt if state in allowed else state
                    for state in value.states
                ),
            )
            return
        states = ", ".join(sorted(value.states))
        if proto.terminal is not None and value.states == frozenset(
            {proto.terminal}
        ):
            self._report(
                call.lineno,
                RULE_USE_AFTER_CLOSE,
                f"'{self.qualname}' calls '{key}.{method}()' after the "
                f"{proto.name} reached terminal state "
                f"'{proto.terminal}'; construct a fresh one instead",
            )
        else:
            wanted = ", ".join(sorted(allowed))
            self._report(
                call.lineno,
                RULE_TYPESTATE_ORDER,
                f"'{self.qualname}' calls '{key}.{method}()' in state "
                f"{{{states}}} but the {proto.name} protocol allows it "
                f"only in {{{wanted}}}",
            )
        self.env[key] = TSValue(value.proto, frozenset({nxt}))

    # -- expression evaluation ------------------------------------------
    def eval_expr(self, node: ast.expr) -> Optional[TSValue]:
        if isinstance(node, ast.Call):
            for arg in node.args:
                self.eval_expr(arg)
            for kw in node.keywords:
                self.eval_expr(kw.value)
            func = node.func
            if isinstance(func, ast.Attribute):
                key = self._key(func.value)
                if key is None:
                    self.eval_expr(func.value)
                else:
                    value = self.env.get(key)
                    if value is not None:
                        if value.proto == _BUS:
                            self._bus_op(node, key, value)
                        else:
                            self._transition(node, key, value)
                return None
            constructed = self._constructed(node)
            if constructed is not None:
                return constructed
            return None
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            key = self._key(node)
            if key is not None:
                return self.env.get(key)
            self.eval_expr(node.value)
            return None
        if isinstance(node, ast.IfExp):
            self.eval_expr(node.test)
            return self.merge(
                self.eval_expr(node.body), self.eval_expr(node.orelse)
            )
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval_expr(child)
        return None


# ---------------------------------------------------------------------------
# Leaked-resource analysis
# ---------------------------------------------------------------------------

def _is_acquisition(call: ast.Call, aliases: Dict[str, str]) -> bool:
    """``SharedMemory(create=True, ...)`` — attaching is not acquiring."""
    name = canonical_name(dotted(call.func), aliases)
    if not (name == "SharedMemory" or name.endswith(".SharedMemory")):
        return False
    for kw in call.keywords:
        if (
            kw.arg == "create"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
        ):
            return True
    return False


def _has_cleanup(stmts: Sequence[ast.stmt]) -> bool:
    for stmt in stmts:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _CLEANUP_METHODS
            ):
                return True
    return False


def _protected(regions: Tuple[TryRegion, ...]) -> bool:
    """Whether a statement's exception edge runs releasing cleanup.

    Statements in the *body* of a try whose handler or finalizer
    releases are covered; so are the handler/finalizer statements
    themselves (they are the release path).  ``else`` blocks are not:
    exceptions raised there bypass the handlers.
    """
    for region in regions:
        if region.region == "else":
            continue
        if region.region in ("handler", "final"):
            if _has_cleanup(region.stmt.finalbody) or any(
                _has_cleanup(h.body) for h in region.stmt.handlers
            ):
                return True
            continue
        if _has_cleanup(region.stmt.finalbody):
            return True
        if any(
            _has_cleanup(handler.body) for handler in region.stmt.handlers
        ):
            return True
    return False


def _self_store_attr(fn: ast.AST, local: str) -> Optional[str]:
    """Attribute name when ``local`` is stored into ``self`` state."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            if not (
                isinstance(node.value, ast.Name) and node.value.id == local
            ):
                continue
            for target in node.targets:
                attr = _self_attr_of(target)
                if attr is not None:
                    return attr
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("append", "add", "insert", "setdefault")
                and node.args
                and any(
                    isinstance(a, ast.Name) and a.id == local
                    for a in node.args
                )
            ):
                attr = _self_attr_of(func.value)
                if attr is not None:
                    return attr
    return None


def _self_attr_of(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _owner_releases(
    modules: Sequence[ModuleInfo], table: SymbolTable, owner: str, attr: str
) -> bool:
    """Whether any MRO cleanup method of ``owner`` releases ``attr``."""
    names = set(table.mro(owner)) or {owner}
    for module in modules:
        for scope in module.functions():
            if scope.owner not in names:
                continue
            if scope.node.name not in _OWNER_CLEANUP:
                continue
            mentions = any(
                isinstance(node, ast.Attribute) and node.attr == attr
                for node in ast.walk(scope.node)
            )
            if mentions and _has_cleanup(scope.node.body):
                return True
    return False


def _is_fallible(
    node: ast.AST, module_funcs: Set[str]
) -> Optional[str]:
    """Description when a single node can raise mid-setup.

    Fallible means a ``self.m()`` call, a call to a same-module
    function, or an explicit ``raise`` — the project's own multi-step
    setup code, where a partial failure strands earlier acquisitions.
    """
    if isinstance(node, ast.Raise):
        return "raises"
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    ):
        return f"calls 'self.{func.attr}()'"
    if isinstance(func, ast.Name) and func.id in module_funcs:
        return f"calls '{func.id}()'"
    return None


def _later_try_releases(fn: ast.AST, after_line: int, local: str) -> bool:
    """A subsequent try's handler/finally releases ``local``.

    Accepts the canonical acquire-then-guard idiom::

        shm = SharedMemory(create=True, ...)
        try: ...
        finally: shm.close(); shm.unlink()
    """
    for node in ast.walk(fn):
        if not isinstance(node, ast.Try) or node.lineno < after_line:
            continue
        cleanup_stmts = list(node.finalbody) + [
            stmt for handler in node.handlers for stmt in handler.body
        ]
        for stmt in cleanup_stmts:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _CLEANUP_METHODS
                    and isinstance(sub.func.value, ast.Name)
                    and sub.func.value.id == local
                ):
                    return True
    return False


class _LeakChecker:
    """Per-module SharedMemory acquisition/release conformance."""

    def __init__(
        self,
        modules: Sequence[ModuleInfo],
        module: ModuleInfo,
        table: SymbolTable,
    ) -> None:
        self.modules = modules
        self.module = module
        self.table = table
        self.aliases = import_aliases(module)
        self.module_funcs = {
            scope.node.name
            for scope in module.functions()
            if scope.owner is None
        }
        #: (owner, method) -> first direct-acquisition line
        self.direct: Dict[Tuple[Optional[str], str], int] = {}
        #: functions already flagged by the direct check; the
        #: exception-edge obligation skips them so one defect yields
        #: exactly one finding.
        self.flagged: Set[Tuple[Optional[str], str]] = set()

    def run(self) -> List[Finding]:
        findings: List[Finding] = []
        scopes = list(self.module.functions())
        for scope in scopes:
            findings.extend(self._check_direct(scope))
        acquiring = self._acquiring_methods(scopes)
        for scope in scopes:
            findings.extend(self._check_obligation(scope, acquiring))
        return findings

    # -- direct acquisitions --------------------------------------------
    def _check_direct(self, scope: FunctionScope) -> List[Finding]:
        findings: List[Finding] = []
        fn = scope.node
        tries = try_scopes(fn)
        returned = {
            node.value.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Return)
            and isinstance(node.value, ast.Name)
        }
        for stmt in iter_own_nodes(fn):
            if not isinstance(stmt, ast.Assign):
                continue
            if not (
                isinstance(stmt.value, ast.Call)
                and _is_acquisition(stmt.value, self.aliases)
            ):
                continue
            key = (scope.owner, fn.name)
            self.direct[key] = min(
                self.direct.get(key, stmt.lineno), stmt.lineno
            )
            target = stmt.targets[0]
            local = target.id if isinstance(target, ast.Name) else None
            if local is None:
                continue
            stored = (
                _self_store_attr(fn, local)
                or _self_attr_of(target)
            )
            if stored is not None:
                if scope.owner is not None and not _owner_releases(
                    self.modules, self.table, scope.owner, stored
                ):
                    self.flagged.add(key)
                    findings.append(
                        Finding(
                            self.module.rel,
                            stmt.lineno,
                            RULE_LEAKED_RESOURCE,
                            f"'{scope.qualname}' stores a SharedMemory "
                            f"block in 'self.{stored}' but no cleanup "
                            f"method of '{scope.owner}' releases it; add "
                            "a close() that closes and unlinks the "
                            "container's blocks",
                            PASS_NAME,
                        )
                    )
                continue
            if local in returned:
                continue  # ownership transfers to the caller
            if _protected(tries.get(id(stmt), ())):
                continue
            if _later_try_releases(fn, stmt.lineno, local):
                continue
            self.flagged.add(key)
            findings.append(
                Finding(
                    self.module.rel,
                    stmt.lineno,
                    RULE_LEAKED_RESOURCE,
                    f"'{scope.qualname}' acquires SharedMemory "
                    f"'{local}' outside any try whose handler or "
                    "finally releases it; wrap in try/finally with "
                    f"{local}.close() and {local}.unlink()",
                    PASS_NAME,
                )
            )
        return findings

    # -- transitive acquiring methods -----------------------------------
    def _acquiring_methods(
        self, scopes: Sequence[FunctionScope]
    ) -> Dict[Tuple[Optional[str], str], int]:
        """(owner, method) -> acquisition-point line, transitively.

        A method acquires when it contains a direct acquisition or a
        ``self.m()`` call to an acquiring method of the same class.
        """
        acquiring = dict(self.direct)
        changed = True
        while changed:
            changed = False
            for scope in scopes:
                key = (scope.owner, scope.node.name)
                if key in acquiring or scope.owner is None:
                    continue
                for node in iter_own_nodes(scope.node):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    if not (
                        isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                    ):
                        continue
                    if (scope.owner, func.attr) in acquiring:
                        acquiring[key] = node.lineno
                        changed = True
                        break
        return acquiring

    # -- exception-edge obligation --------------------------------------
    def _check_obligation(
        self,
        scope: FunctionScope,
        acquiring: Dict[Tuple[Optional[str], str], int],
    ) -> List[Finding]:
        fn = scope.node
        key = (scope.owner, fn.name)
        if key not in acquiring or key in self.flagged:
            return []
        tries = try_scopes(fn)
        acq_line: Optional[int] = None
        for node in sorted(
            iter_own_nodes(fn), key=lambda n: getattr(n, "lineno", 0)
        ):
            if acq_line is None:
                if self._acquisition_point(node, scope.owner, acquiring):
                    acq_line = node.lineno
                continue
            if getattr(node, "lineno", 0) <= acq_line:
                continue
            description = _is_fallible(node, self.module_funcs)
            if description is None:
                continue
            if _protected(tries.get(id(node), ())):
                continue
            return [
                Finding(
                    self.module.rel,
                    acq_line,
                    RULE_LEAKED_RESOURCE,
                    f"'{scope.qualname}' allocates SharedMemory (line "
                    f"{acq_line}) and then {description} (line "
                    f"{node.lineno}) with no try releasing the blocks on "
                    "failure; a partial failure strands the mappings — "
                    "wrap the setup in try/except with close() (or "
                    "try/finally)",
                    PASS_NAME,
                )
            ]
        return []

    def _acquisition_point(
        self,
        node: ast.AST,
        owner: Optional[str],
        acquiring: Dict[Tuple[Optional[str], str], int],
    ) -> bool:
        if not isinstance(node, ast.Call):
            return False
        if _is_acquisition(node, self.aliases):
            return True
        func = node.func
        return (
            owner is not None
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and (owner, func.attr) in acquiring
        )


# ---------------------------------------------------------------------------
# Pass entry point
# ---------------------------------------------------------------------------

def run_pass(
    modules: Sequence[ModuleInfo], table: SymbolTable
) -> List[Finding]:
    findings: List[Finding] = []
    for module in modules:
        aliases = import_aliases(module)
        for scope in module.functions():
            interp = _LifecycleInterp(
                module, table, aliases, scope.qualname
            )
            interp.run(scope.node.body)
            findings.extend(interp.findings)
        findings.extend(_LeakChecker(modules, module, table).run())
    return findings
