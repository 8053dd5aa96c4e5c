"""The five heaven_analyze rules, frontend-independent.

Rules operate on the Facts model (classes, function event streams, waivers,
raw file text). Each returns a list of Finding. Rule ids:

  lock-order            global lock-acquisition graph is acyclic; leaf-lock
                        markers really are leaves
  guard-coverage        every mutable member of a mutex-owning class is
                        GUARDED_BY or explicitly waived
  clock-discipline      wall-clock reads only at waived measurement sites
  metrics-completeness  every Ticker / HistogramKind enumerator has a name
                        and at least one use site
  pool-isolation        nothing reachable from a thread-pool task touches
                        db_mu_-guarded state
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

from hfacts import Facts, Finding, FunctionInfo

# ---------------------------------------------------------------------------
# lock name resolution


def _terminal(expr: str) -> str:
    """`shard->mu` -> `mu`, `*mu_` -> `mu_`, `other.mu_` -> `mu_`."""
    expr = expr.strip().strip('"')  # ACQUIRED_AFTER("Class::mu_") form
    for sep in ("->", ".", "::"):
        if sep in expr:
            expr = expr.rsplit(sep, 1)[1]
    return expr.strip("*&() ")


class LockResolver:
    """Maps a lock expression in a function to a stable node name."""

    def __init__(self, facts: Facts):
        self.facts = facts
        # terminal member name -> [class names owning a mutex member with it]
        self.by_member: Dict[str, List[str]] = {}
        for cls in facts.classes.values():
            for m in cls.mutex_members():
                self.by_member.setdefault(m.name, []).append(cls.name)

    def resolve(self, expr: str, cls: Optional[str], file: str) -> str:
        stripped = expr.strip().strip('"')
        if "::" in stripped:
            # qualified form from a string annotation: "Class::member"
            owner, _, member = stripped.rpartition("::")
            info = self.facts.classes.get(owner)
            if info is not None:
                m = info.member(member)
                if m is not None and m.is_mutex:
                    return f"{owner}::{member}"
        name = _terminal(expr)
        if cls:
            # the enclosing class itself, then outer classes of a nested
            # definition, then classes nested inside the enclosing class
            for candidate in self._context_classes(cls):
                info = self.facts.classes.get(candidate)
                if info:
                    m = info.member(name)
                    if m is not None and m.is_mutex:
                        return f"{candidate}::{name}"
        owners = self.by_member.get(name, [])
        if len(owners) == 1:
            return f"{owners[0]}::{name}"
        # ambiguous or unknown: keep it file-scoped so ordering is still
        # checked locally without conflating unrelated locks
        return f"{file}::{name}"

    def _context_classes(self, cls: str) -> List[str]:
        out = [cls]
        parts = cls.split("::")
        for i in range(len(parts) - 1, 0, -1):
            out.append("::".join(parts[:i]))
        for other in self.facts.classes:
            if other.startswith(cls + "::"):
                out.append(other)
        return out


# ---------------------------------------------------------------------------
# rule: lock-order


class _Edge:
    __slots__ = ("src", "dst", "origin", "file", "line")

    def __init__(self, src: str, dst: str, origin: str, file: str,
                 line: int):
        self.src, self.dst = src, dst
        self.origin, self.file, self.line = origin, file, line


def _function_index(facts: Facts) -> Dict[str, List[FunctionInfo]]:
    index: Dict[str, List[FunctionInfo]] = {}
    for fn in facts.functions:
        index.setdefault(fn.simple_name, []).append(fn)
    return index


def _resolve_callee(facts: Facts, index: Dict[str, List[FunctionInfo]],
                    caller: FunctionInfo, name: str) \
        -> Optional[FunctionInfo]:
    candidates = index.get(name)
    if not candidates:
        return None
    if caller.cls:
        same = [fn for fn in candidates if fn.cls == caller.cls]
        if same:
            return same[0]
    if len(candidates) == 1:
        return candidates[0]
    return None  # ambiguous cross-class call: skip (conservative)


def _locks_acquired_inside(facts: Facts, resolver: LockResolver,
                           index: Dict[str, List[FunctionInfo]],
                           fn: FunctionInfo,
                           memo: Dict[str, Set[Tuple[str, int]]],
                           stack: Set[str]) -> Set[Tuple[str, int]]:
    """Transitive set of (lock node, line) a call into `fn` may acquire."""
    if fn.qualname in memo:
        return memo[fn.qualname]
    if fn.qualname in stack:
        return set()
    stack.add(fn.qualname)
    acquired: Set[Tuple[str, int]] = set()
    for ev in fn.events:
        if ev.kind == "acquire" and not ev.adopted:
            acquired.add((resolver.resolve(ev.lock_expr, fn.cls, fn.file),
                          ev.line))
        elif ev.kind == "call":
            callee = _resolve_callee(facts, index, fn, ev.name)
            if callee is not None and callee.qualname != fn.qualname:
                acquired |= _locks_acquired_inside(
                    facts, resolver, index, callee, memo, stack)
    stack.discard(fn.qualname)
    memo[fn.qualname] = acquired
    return acquired


def _entry_held(facts: Facts, resolver: LockResolver,
                fn: FunctionInfo) -> List[str]:
    reqs = list(fn.requires) + facts.decl_annotations.get(fn.qualname, [])
    return [resolver.resolve(r, fn.cls, fn.file) for r in reqs]


def build_lock_graph(facts: Facts) -> Tuple[Set[str], List[_Edge]]:
    resolver = LockResolver(facts)
    nodes: Set[str] = set()
    edges: List[_Edge] = []

    for cls in facts.classes.values():
        for m in cls.mutex_members():
            node = f"{cls.name}::{m.name}"
            nodes.add(node)
            for after in m.acquired_after:
                src = resolver.resolve(after, cls.name, cls.file)
                nodes.add(src)
                edges.append(_Edge(src, node, "annotation", m.file, m.line))
            for before in m.acquired_before:
                dst = resolver.resolve(before, cls.name, cls.file)
                nodes.add(dst)
                edges.append(_Edge(node, dst, "annotation", m.file, m.line))

    index = _function_index(facts)
    memo: Dict[str, Set[Tuple[str, int]]] = {}
    for fn in facts.functions:
        held: List[Tuple[str, int]] = [(n, fn.line)
                                       for n in _entry_held(facts,
                                                            resolver, fn)]
        base = len(held)  # REQUIRES locks stay held throughout
        scope: List[int] = []  # len(held) snapshots at scope opens
        for ev in fn.events:
            if ev.kind == "open":
                scope.append(len(held))
            elif ev.kind == "close":
                if scope:
                    held = held[:max(base, scope.pop())]
            elif ev.kind == "acquire":
                node = resolver.resolve(ev.lock_expr, fn.cls, fn.file)
                nodes.add(node)
                if not ev.adopted:
                    for src, _ in held:
                        if src != node:
                            edges.append(_Edge(src, node, "observed",
                                               fn.file, ev.line))
                held.append((node, ev.line))
            elif ev.kind == "call":
                callee = _resolve_callee(facts, index, fn, ev.name)
                if callee is not None and held:
                    inner = _locks_acquired_inside(
                        facts, resolver, index, callee, memo, set())
                    for node, line in inner:
                        nodes.add(node)
                        for src, _ in held:
                            if src != node:
                                edges.append(_Edge(src, node, "observed",
                                                   fn.file, ev.line))
    return nodes, edges


def _find_cycle(nodes: Set[str],
                adj: Dict[str, List[_Edge]]) -> Optional[List[_Edge]]:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    path: List[_Edge] = []

    def dfs(n: str) -> Optional[List[_Edge]]:
        color[n] = GRAY
        for edge in adj.get(n, []):
            if color.get(edge.dst, WHITE) == GRAY:
                cycle = [edge]
                for back in reversed(path):
                    cycle.insert(0, back)
                    if back.src == edge.dst:
                        break
                return cycle
            if color.get(edge.dst, WHITE) == WHITE:
                path.append(edge)
                found = dfs(edge.dst)
                path.pop()
                if found:
                    return found
        color[n] = BLACK
        return None

    for n in sorted(nodes):
        if color[n] == WHITE:
            found = dfs(n)
            if found:
                return found
    return None


def rule_lock_order(facts: Facts) -> Tuple[List[Finding], str]:
    """Returns (findings, DOT text of the lock hierarchy)."""
    findings: List[Finding] = []
    nodes, edges = build_lock_graph(facts)

    # dedupe edges for the graph walk / DOT
    seen: Dict[Tuple[str, str], _Edge] = {}
    for e in edges:
        key = (e.src, e.dst)
        # prefer annotation provenance in the rendered graph
        if key not in seen or (e.origin == "annotation"
                               and seen[key].origin != "annotation"):
            seen[key] = e
    adj: Dict[str, List[_Edge]] = {}
    for e in seen.values():
        adj.setdefault(e.src, []).append(e)
    for lst in adj.values():
        lst.sort(key=lambda e: e.dst)

    cycle = _find_cycle(nodes, adj)
    if cycle:
        desc = " -> ".join([e.src for e in cycle] + [cycle[-1].dst])
        where = "; ".join(
            f"{e.src}->{e.dst} ({e.origin} at {e.file}:{e.line})"
            for e in cycle)
        findings.append(Finding(
            "lock-order", cycle[0].file, cycle[0].line,
            f"lock-order cycle: {desc} [{where}]"))

    # leaf-lock markers must actually be leaves
    for cls in facts.classes.values():
        for m in cls.mutex_members():
            if facts.waiver_at(m.file, m.line, "leaf-lock") is None:
                continue
            node = f"{cls.name}::{m.name}"
            for e in adj.get(node, []):
                findings.append(Finding(
                    "lock-order", e.file, e.line,
                    f"{node} is marked '// analyze: leaf-lock' but "
                    f"acquires {e.dst} while held ({e.origin})"))

    dot_lines = ["digraph lock_order {",
                 "  rankdir=LR;",
                 "  node [shape=box, fontname=\"monospace\"];"]
    for n in sorted(nodes):
        dot_lines.append(f'  "{n}";')
    for e in sorted(seen.values(), key=lambda e: (e.src, e.dst)):
        style = "solid" if e.origin == "annotation" else "dashed"
        dot_lines.append(
            f'  "{e.src}" -> "{e.dst}" '
            f'[style={style}, label="{e.origin}"];')
    dot_lines.append("}")
    return findings, "\n".join(dot_lines) + "\n"


# ---------------------------------------------------------------------------
# rule: guard-coverage


def rule_guard_coverage(facts: Facts) -> List[Finding]:
    findings: List[Finding] = []
    for cls in sorted(facts.classes.values(), key=lambda c: c.name):
        if not cls.mutex_members():
            continue
        for m in cls.members:
            if (m.is_static or m.is_const or m.is_atomic or m.is_sync):
                continue
            if m.guarded_by or m.pt_guarded_by:
                continue
            if facts.waiver_at(m.file, m.line, "unguarded"):
                continue
            findings.append(Finding(
                "guard-coverage", m.file, m.line,
                f"{cls.name}::{m.name} is mutable state in a mutex-owning "
                f"class but carries no GUARDED_BY / PT_GUARDED_BY and no "
                f"'// analyze: unguarded(<reason>)' waiver"))
    return findings


# ---------------------------------------------------------------------------
# rule: clock-discipline

_WALLCLOCK_RE = re.compile(
    r"\b(steady_clock|system_clock|high_resolution_clock)\b")


def rule_clock_discipline(facts: Facts) -> List[Finding]:
    findings: List[Finding] = []
    for path in sorted(facts.files):
        if not (path.endswith(".cc") or path.endswith(".h")):
            continue
        for lineno, line in enumerate(facts.files[path].splitlines(),
                                      start=1):
            code = line.split("//", 1)[0]
            if not _WALLCLOCK_RE.search(code):
                continue
            if facts.waiver_at(path, lineno, "wallclock"):
                continue
            findings.append(Finding(
                "clock-discipline", path, lineno,
                "wall-clock read outside a waived measurement site "
                "(simulated time rides SimClock; measurement sites carry "
                "'// analyze: wallclock(<reason>)')"))
    return findings


# ---------------------------------------------------------------------------
# rule: metrics-completeness

_ENUM_RE = re.compile(
    r"enum\s+class\s+(Ticker|HistogramKind)\b[^{]*\{(.*?)\}\s*;",
    re.DOTALL)
_ENUMERATOR_RE = re.compile(r"^\s*(k[A-Za-z0-9_]+)\s*[=,]?", re.MULTILINE)


def _strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", "", text)


def rule_metrics_completeness(facts: Facts) -> List[Finding]:
    findings: List[Finding] = []
    enums: Dict[str, Dict[str, Tuple[str, int]]] = {}
    name_tables: Dict[str, Set[str]] = {"Ticker": set(),
                                        "HistogramKind": set()}
    uses: Dict[str, Set[str]] = {"Ticker": set(), "HistogramKind": set()}
    decl_files: Dict[str, str] = {}

    for path, text in facts.files.items():
        clean = _strip_comments(text)
        for match in _ENUM_RE.finditer(clean):
            enum_name, body = match.group(1), match.group(2)
            decl_files[enum_name] = path
            line_base = clean[:match.start()].count("\n") + 1
            table = enums.setdefault(enum_name, {})
            for em in _ENUMERATOR_RE.finditer(body):
                name = em.group(1)
                if name.startswith("kNum"):
                    continue
                line = line_base + body[:em.start()].count("\n")
                table.setdefault(name, (path, line))
        # name-table entries: `case Ticker::kX:` followed by a return
        for kind in ("Ticker", "HistogramKind"):
            for m in re.finditer(
                    rf"case\s+{kind}\s*::\s*(k[A-Za-z0-9_]+)\s*:", clean):
                name_tables[kind].add(m.group(1))

    for path, text in facts.files.items():
        clean = _strip_comments(text)
        for kind in ("Ticker", "HistogramKind"):
            for m in re.finditer(rf"{kind}\s*::\s*(k[A-Za-z0-9_]+)", clean):
                # skip the name-table switch cases themselves
                prefix = clean[max(0, m.start() - 16):m.start()]
                if re.search(r"case\s+$", prefix):
                    continue
                uses[kind].add(m.group(1))

    for enum_name, table in sorted(enums.items()):
        for name, (path, line) in sorted(table.items(),
                                         key=lambda kv: kv[1][1]):
            if name not in name_tables[enum_name]:
                findings.append(Finding(
                    "metrics-completeness", path, line,
                    f"{enum_name}::{name} has no name-table entry "
                    f"(add a case to "
                    f"{'TickerName' if enum_name == 'Ticker' else 'HistogramName'})"))
            if name not in uses[enum_name]:
                findings.append(Finding(
                    "metrics-completeness", path, line,
                    f"{enum_name}::{name} is never recorded anywhere "
                    f"(dead metric: wire an increment site or delete it)"))
    return findings


# ---------------------------------------------------------------------------
# rule: pool-isolation


def rule_pool_isolation(facts: Facts,
                        hierarchy_lock: str = "db_mu_") -> List[Finding]:
    findings: List[Finding] = []
    guarded: Set[str] = set()
    for cls in facts.classes.values():
        for m in cls.members:
            if m.guarded_by and _terminal(m.guarded_by) == hierarchy_lock:
                guarded.add(m.name)

    index = _function_index(facts)

    def offenders(fn: FunctionInfo) -> List[Tuple[int, str]]:
        out = []
        for ev in fn.events:
            if ev.kind == "access" and ev.name in guarded:
                out.append((ev.line,
                            f"touches {hierarchy_lock}-guarded state "
                            f"'{ev.name}'"))
            elif (ev.kind == "acquire"
                  and _terminal(ev.lock_expr) == hierarchy_lock):
                out.append((ev.line, f"acquires {hierarchy_lock}"))
        return out

    # roots: calls + accesses inside Submit/ParallelFor argument ranges
    visited: Set[str] = set()

    def check(fn: FunctionInfo, chain: List[str]) -> None:
        if fn.qualname in visited:
            return
        visited.add(fn.qualname)
        if facts.waiver_at(fn.file, fn.line, "pool-safe"):
            return
        for line, what in offenders(fn):
            via = " -> ".join(chain + [fn.qualname])
            findings.append(Finding(
                "pool-isolation", fn.file, line,
                f"pool task {what} via {via} (pool tasks must never "
                f"depend on the hierarchy lock: deadlock against the "
                f"submitting mutator)"))
        for ev in fn.events:
            if ev.kind == "call":
                callee = _resolve_callee(facts, index, fn, ev.name)
                if callee is not None and callee.qualname != fn.qualname:
                    check(callee, chain + [fn.qualname])

    for fn in facts.functions:
        pool_events = [ev for ev in fn.events if ev.in_pool_task]
        if not pool_events:
            continue
        # direct accesses inside the task body
        for ev in pool_events:
            if ev.kind == "access" and ev.name in guarded:
                findings.append(Finding(
                    "pool-isolation", fn.file, ev.line,
                    f"thread-pool task body in {fn.qualname} touches "
                    f"{hierarchy_lock}-guarded state '{ev.name}'"))
            elif (ev.kind == "acquire"
                  and _terminal(ev.lock_expr) == hierarchy_lock):
                findings.append(Finding(
                    "pool-isolation", fn.file, ev.line,
                    f"thread-pool task body in {fn.qualname} acquires "
                    f"{hierarchy_lock}"))
            elif ev.kind == "call" and ev.name not in ("Submit",
                                                       "ParallelFor"):
                callee = _resolve_callee(facts, index, fn, ev.name)
                if callee is not None:
                    check(callee, [f"{fn.qualname}[pool-task]"])
    return findings


# ---------------------------------------------------------------------------

ALL_RULES = ("lock-order", "guard-coverage", "clock-discipline",
             "metrics-completeness", "pool-isolation")


def run_rules(facts: Facts, rules=ALL_RULES) \
        -> Tuple[List[Finding], Optional[str]]:
    findings: List[Finding] = []
    dot: Optional[str] = None
    if "lock-order" in rules:
        lock_findings, dot = rule_lock_order(facts)
        findings += lock_findings
    if "guard-coverage" in rules:
        findings += rule_guard_coverage(facts)
    if "clock-discipline" in rules:
        findings += rule_clock_discipline(facts)
    if "metrics-completeness" in rules:
        findings += rule_metrics_completeness(facts)
    if "pool-isolation" in rules:
        findings += rule_pool_isolation(facts)
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings, dot
