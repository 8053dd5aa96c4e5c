"""Fact model shared by the heaven_analyze frontends.

Both frontends (frontend_lex: self-contained C++ tokenizer; frontend_clang:
libclang / clang.cindex) lower the translation units under --root into the
same structural facts, so every rule in rules.py is frontend-independent:

  * ClassInfo / Member   -- class layout, lock members, GUARDED_BY /
                            ACQUIRED_AFTER annotations, waiver comments.
  * FunctionInfo / Event -- per-function event streams: scope open/close,
                            guard acquisitions, calls, identifier accesses,
                            each tagged with whether it happens inside a
                            thread-pool task body (Submit / ParallelFor
                            argument).

Waiver comments are the analyzer's only escape hatches and always carry a
reason:

  // analyze: unguarded(<reason>)   -- member may stay without GUARDED_BY
  // analyze: wallclock(<reason>)   -- wall-clock call is a sanctioned
                                       measurement site
  // analyze: leaf-lock             -- mutex acquires no further lock while
                                       held (lint.sh rule 6 marker; rule
                                       lock-order enforces it)
  // analyze: pool-safe(<reason>)   -- function is safe to run on the pool
                                       even though the heuristic reachability
                                       flags it
"""

from __future__ import annotations

import dataclasses
import re
from typing import Dict, List, Optional, Set, Tuple

MUTEX_TYPES = ("Mutex",)
SYNC_TYPES = MUTEX_TYPES + ("CondVar",)

WAIVER_RE = re.compile(
    r"//\s*analyze:\s*"
    r"(unguarded|wallclock|pool-safe|leaf-lock)"
    r"(?:\(([^)]*)\))?"
)


@dataclasses.dataclass
class Waiver:
    kind: str  # unguarded | wallclock | pool-safe | leaf-lock
    reason: str
    file: str
    line: int


@dataclasses.dataclass
class Member:
    name: str
    type_text: str
    file: str
    line: int
    is_const: bool = False
    is_static: bool = False
    is_atomic: bool = False
    is_mutex: bool = False  # value member of type Mutex
    is_sync: bool = False   # mutex or CondVar (never needs a guard itself)
    guarded_by: Optional[str] = None
    pt_guarded_by: Optional[str] = None
    acquired_after: List[str] = dataclasses.field(default_factory=list)
    acquired_before: List[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class ClassInfo:
    name: str  # nested classes are "Outer::Inner"
    file: str
    line: int
    members: List[Member] = dataclasses.field(default_factory=list)

    def mutex_members(self) -> List[Member]:
        return [m for m in self.members if m.is_mutex and not m.is_static]

    def member(self, name: str) -> Optional[Member]:
        for m in self.members:
            if m.name == name:
                return m
        return None


@dataclasses.dataclass
class Event:
    """One element of a function's linearized body stream."""

    kind: str  # open | close | acquire | call | access
    line: int
    in_pool_task: bool = False
    # acquire:
    lock_expr: str = ""
    adopted: bool = False
    # call / access:
    name: str = ""


@dataclasses.dataclass
class FunctionInfo:
    qualname: str  # "Class::Method" or "FreeFunction"
    cls: Optional[str]
    file: str
    line: int
    requires: List[str] = dataclasses.field(default_factory=list)
    events: List[Event] = dataclasses.field(default_factory=list)

    @property
    def simple_name(self) -> str:
        return self.qualname.rsplit("::", 1)[-1]


@dataclasses.dataclass
class Facts:
    backend: str = "structural"
    classes: Dict[str, ClassInfo] = dataclasses.field(default_factory=dict)
    functions: List[FunctionInfo] = dataclasses.field(default_factory=list)
    # (file, line) -> Waiver
    waivers: Dict[Tuple[str, int], Waiver] = dataclasses.field(
        default_factory=dict)
    # raw text per file, for the text-level rules (clock discipline,
    # metrics completeness) and waiver adjacency lookups.
    files: Dict[str, str] = dataclasses.field(default_factory=dict)
    # declaration-level annotations merged from headers:
    # qualname -> the locks its REQUIRES names
    decl_annotations: Dict[str, List[str]] = dataclasses.field(
        default_factory=dict)

    def add_waiver(self, waiver: Waiver) -> None:
        self.waivers[(waiver.file, waiver.line)] = waiver

    def waiver_at(self, file: str, line: int,
                  kind: str) -> Optional[Waiver]:
        """A waiver of `kind` on `line` or on the line above it."""
        for candidate in (line, line - 1):
            waiver = self.waivers.get((file, candidate))
            if waiver is not None and waiver.kind == kind:
                return waiver
        return None


def collect_waivers(facts: Facts, path: str, text: str) -> None:
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = WAIVER_RE.search(line)
        if match:
            facts.add_waiver(
                Waiver(kind=match.group(1), reason=match.group(2) or "",
                       file=path, line=lineno))


@dataclasses.dataclass
class Finding:
    rule: str
    file: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"
