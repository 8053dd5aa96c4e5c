"""Self-contained structural C++ frontend for heaven_analyze.

A real compiler frontend is overkill for the five invariants this analyzer
enforces: the codebase's own style (clang-format, annotated wrapper types,
PascalCase methods, trailing-underscore members) makes the structure
recoverable from a token stream. This frontend tokenizes each file (comments
and strings handled properly), then walks the token stream tracking
namespace / class / function scopes to produce the Facts model.

It runs everywhere python3 runs -- no clang install, no compile_commands --
which is what lets scripts/check.sh run the analyzer on every machine while
the libclang frontend remains an optional cross-check (CI installs it).
Known limitations (acceptable for this codebase, covered by fixtures):

  * Preprocessor conditionals are ignored (all branches are scanned).
  * Template metaprogramming beyond `template <...> class X {` is not
    modeled; the repo has none on the lock paths.
  * Overload sets collapse to one name; rules resolve calls by enclosing
    class first and skip ambiguous cross-class matches.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from hfacts import (MUTEX_TYPES, SYNC_TYPES, ClassInfo, Event, Facts,
                    FunctionInfo, Member, collect_waivers)

KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "return",
    "sizeof", "new", "delete", "static_cast", "dynamic_cast",
    "reinterpret_cast", "const_cast", "throw", "catch", "alignof",
    "decltype", "noexcept", "default", "break", "continue", "goto",
    "co_await", "co_return", "co_yield", "static_assert", "assert",
}

ANNOTATION_MACROS = {
    "GUARDED_BY", "PT_GUARDED_BY", "ACQUIRED_AFTER", "ACQUIRED_BEFORE",
    "REQUIRES", "EXCLUDES", "ACQUIRE", "RELEASE", "TRY_ACQUIRE",
    "ASSERT_CAPABILITY",
    "RETURN_CAPABILITY", "CAPABILITY", "SCOPED_CAPABILITY",
    "NO_THREAD_SAFETY_ANALYSIS", "HEAVEN_THREAD_ANNOTATION_ATTRIBUTE__",
}

GUARD_TYPE = "MutexLock"

POOL_ENTRY_CALLS = {"Submit", "ParallelFor"}


@dataclasses.dataclass
class Token:
    kind: str  # id | num | str | chr | punct
    text: str
    line: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                j = n if j < 0 else j + 2
                line += text.count("\n", i, j)
                i = j
                continue
        if c == "#":  # preprocessor line (incl. line continuations)
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    j = n
                    break
                if text[k - 1] == "\\":
                    j = k + 1
                    continue
                j = k
                break
            line += text.count("\n", i, j)
            i = j
            continue
        if c == "R" and text.startswith('R"', i):
            delim_end = text.find("(", i + 2)
            if delim_end > 0:
                delim = text[i + 2:delim_end]
                close = ")" + delim + '"'
                j = text.find(close, delim_end)
                j = n if j < 0 else j + len(close)
                tokens.append(Token("str", text[i:j], line))
                line += text.count("\n", i, j)
                i = j
                continue
        if c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            tokens.append(Token("str" if c == '"' else "chr",
                                text[i:j], line))
            line += text.count("\n", i, j)
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("id", text[i:j], line))
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "._'+-"):
                # consume exponent signs only after e/E/p/P
                if text[j] in "+-" and text[j - 1] not in "eEpP":
                    break
                j += 1
            tokens.append(Token("num", text[i:j], line))
            i = j
            continue
        for multi in ("::", "->", "<<=", ">>=", "<=", ">=", "==", "!=",
                      "&&", "||", "+=", "-=", "*=", "/=", "|=", "&=",
                      "^=", "++", "--", "<<", ">>"):
            if text.startswith(multi, i):
                tokens.append(Token("punct", multi, line))
                i += len(multi)
                break
        else:
            tokens.append(Token("punct", c, line))
            i += 1
    return tokens


def _match_paren(tokens: List[Token], i: int) -> int:
    """Index just past the ')' matching tokens[i] == '('."""
    depth = 0
    while i < len(tokens):
        t = tokens[i].text
        if tokens[i].kind == "punct":
            if t == "(":
                depth += 1
            elif t == ")":
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return len(tokens)


def _match_brace(tokens: List[Token], i: int) -> int:
    """Index just past the '}' matching tokens[i] == '{'."""
    depth = 0
    while i < len(tokens):
        t = tokens[i].text
        if tokens[i].kind == "punct":
            if t == "{":
                depth += 1
            elif t == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return len(tokens)


def _strip_annotations(tokens: List[Token]) -> Tuple[List[Token], dict]:
    """Removes annotation macro calls; returns (clean, captured args)."""
    out: List[Token] = []
    captured: dict = {}
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if (t.kind == "id" and t.text in ANNOTATION_MACROS
                and i + 1 < len(tokens) and tokens[i + 1].text == "("):
            end = _match_paren(tokens, i + 1)
            args_tokens = tokens[i + 2:end - 1]
            args = _split_args(args_tokens)
            captured.setdefault(t.text, []).extend(args)
            i = end
            continue
        if t.kind == "id" and t.text in ANNOTATION_MACROS:
            i += 1  # bare SCOPED_CAPABILITY etc.
            continue
        out.append(t)
        i += 1
    return out, captured


def _split_args(tokens: List[Token]) -> List[str]:
    args: List[str] = []
    cur: List[str] = []
    depth = 0
    for t in tokens:
        if t.kind == "punct":
            if t.text in "(<[":
                depth += 1
            elif t.text in ")>]":
                depth -= 1
            elif t.text == "," and depth == 0:
                args.append("".join(cur))
                cur = []
                continue
        cur.append(t.text)
    if cur:
        args.append("".join(cur))
    return [a for a in (a.strip() for a in args) if a]


class _Parser:
    def __init__(self, facts: Facts, path: str, tokens: List[Token]):
        self.facts = facts
        self.path = path
        self.tokens = tokens

    # -- class bodies ------------------------------------------------------

    def parse(self) -> None:
        self._parse_region(0, len(self.tokens), class_stack=[])

    def _parse_region(self, i: int, end: int,
                      class_stack: List[str]) -> None:
        tokens = self.tokens
        while i < end:
            t = tokens[i]
            if t.kind == "id" and t.text == "namespace":
                j = i + 1
                while j < end and tokens[j].text not in ("{", ";", "="):
                    j += 1
                if j < end and tokens[j].text == "{":
                    close = _match_brace(tokens, j)
                    self._parse_region(j + 1, close - 1, class_stack)
                    i = close
                    continue
                i = j + 1
                continue
            if t.kind == "id" and t.text in ("class", "struct"):
                consumed = self._try_class(i, end, class_stack)
                if consumed is not None:
                    i = consumed
                    continue
            if t.kind == "id" and t.text == "enum":
                j = i + 1
                while j < end and tokens[j].text not in ("{", ";"):
                    j += 1
                if j < end and tokens[j].text == "{":
                    i = _match_brace(tokens, j)
                else:
                    i = j + 1
                continue
            if t.kind == "id" and t.text in ("using", "typedef", "friend"):
                while i < end and tokens[i].text != ";":
                    i += 1
                i += 1
                continue
            # Possible declaration / definition statement at this level.
            i = self._parse_decl(i, end, class_stack)

    def _try_class(self, i: int, end: int,
                   class_stack: List[str]) -> Optional[int]:
        """Parses `class X ... { ... };` returning index past it."""
        tokens = self.tokens
        j = i + 1
        name = None
        while j < end and tokens[j].text not in ("{", ";", "(", "="):
            if tokens[j].text == ":" and tokens[j].kind == "punct":
                break  # base clause; name came before
            if tokens[j].kind == "id" and tokens[j].text not in (
                    "final", "alignas") and tokens[j].text not in \
                    ANNOTATION_MACROS:
                name = tokens[j].text
            j += 1
        if j >= end or tokens[j].text != "{":
            # skip over the base clause to find '{'
            while j < end and tokens[j].text not in ("{", ";", "("):
                j += 1
            if j >= end or tokens[j].text != "{":
                return None  # forward declaration or elaborated type use
        if name is None:
            return None
        close = _match_brace(tokens, j)
        qual = "::".join(class_stack + [name])
        info = self.facts.classes.setdefault(
            qual, ClassInfo(name=qual, file=self.path, line=tokens[i].line))
        self._parse_class_body(j + 1, close - 1, class_stack + [name], info)
        # past optional trailing declarators and ';'
        k = close
        while k < end and tokens[k].text != ";":
            k += 1
        return k + 1

    def _parse_class_body(self, i: int, end: int, class_stack: List[str],
                          info: ClassInfo) -> None:
        tokens = self.tokens
        while i < end:
            t = tokens[i]
            if t.kind == "id" and t.text in ("public", "private",
                                             "protected"):
                i += 1
                if i < end and tokens[i].text == ":":
                    i += 1
                continue
            if t.kind == "id" and t.text in ("class", "struct"):
                consumed = self._try_class(i, end, class_stack)
                if consumed is not None:
                    i = consumed
                    continue
            if t.kind == "id" and t.text == "enum":
                j = i + 1
                while j < end and tokens[j].text not in ("{", ";"):
                    j += 1
                i = _match_brace(tokens, j) if (
                    j < end and tokens[j].text == "{") else j + 1
                continue
            if t.kind == "id" and t.text in ("using", "typedef", "friend"):
                while i < end and tokens[i].text != ";":
                    i += 1
                i += 1
                continue
            if t.kind == "id" and t.text == "template":
                # skip template header `template < ... >`
                j = i + 1
                if j < end and tokens[j].text == "<":
                    depth = 0
                    while j < end:
                        if tokens[j].text == "<":
                            depth += 1
                        elif tokens[j].text == ">":
                            depth -= 1
                            if depth == 0:
                                break
                        j += 1
                    i = j + 1
                    continue
                i += 1
                continue
            i = self._parse_decl(i, end, class_stack, info)

    # -- declarations ------------------------------------------------------

    def _parse_decl(self, i: int, end: int, class_stack: List[str],
                    info: Optional[ClassInfo] = None) -> int:
        """One statement: member decl, method decl/def, or other."""
        tokens = self.tokens
        start = i
        decl: List[Token] = []
        while i < end:
            t = tokens[i]
            if t.kind == "punct" and t.text == ";":
                i += 1
                break
            if t.kind == "punct" and t.text == "(":
                # absorb the whole group: '{' of default args like `= {}`
                # inside a parameter list must not end the statement scan
                close = _match_paren(tokens, i)
                decl.extend(tokens[i:close])
                i = close
                continue
            if t.kind == "punct" and t.text == "{":
                # Function body, brace-init member, or initializer list.
                clean, _ = _strip_annotations(decl)
                if self._looks_like_function(clean):
                    close = _match_brace(tokens, i)
                    self._record_function(decl, i + 1, close - 1,
                                          class_stack)
                    # past optional trailing ';'
                    if close < end and tokens[close].text == ";":
                        close += 1
                    return close
                # brace initializer: absorb and continue to ';'
                close = _match_brace(tokens, i)
                decl.append(t)
                i = close
                continue
            if (t.kind == "punct" and t.text == ":" and decl
                    and self._looks_like_function(
                        _strip_annotations(decl)[0])):
                # constructor initializer list: scan to body '{'
                j = i
                while j < end and tokens[j].text != "{":
                    if tokens[j].text == "(":
                        j = _match_paren(tokens, j)
                        continue
                    if tokens[j].text == ";":
                        break
                    j += 1
                if j < end and tokens[j].text == "{":
                    close = _match_brace(tokens, j)
                    self._record_function(decl, j + 1, close - 1,
                                          class_stack)
                    return close
                i = j
                continue
            decl.append(t)
            i += 1
        if not decl:
            return max(i, start + 1)
        if info is not None:
            self._record_member_or_method_decl(decl, info)
        else:
            self._record_free_decl(decl, class_stack)
        return i

    @staticmethod
    def _looks_like_function(clean: List[Token]) -> bool:
        """A declaration with a parameter list (annotations stripped)."""
        for idx, t in enumerate(clean):
            if t.kind == "id" and t.text == "operator":
                return True  # `T& operator=(...)`: '=' precedes '('
            if t.kind == "punct" and t.text == "(":
                # `= default`-style or operator overloads still count.
                return idx > 0
            if t.kind == "punct" and t.text in ("=",):
                return False
        return False

    def _record_member_or_method_decl(self, decl: List[Token],
                                      info: ClassInfo) -> None:
        clean, anns = _strip_annotations(decl)
        if not clean:
            return
        if self._looks_like_function(clean):
            # method declaration without body: keep REQUIRES annotations
            name = self._function_name(clean)
            if name and anns.get("REQUIRES"):
                self.facts.decl_annotations.setdefault(
                    f"{info.name}::{name}", []).extend(anns["REQUIRES"])
            return
        if clean[0].kind == "id" and clean[0].text in (
                "static_assert", "extern", "operator"):
            return
        member = self._member_from_decl(clean, anns)
        if member is not None:
            info.members.append(member)

    def _member_from_decl(self, clean: List[Token],
                          anns: dict) -> Optional[Member]:
        is_static = any(t.kind == "id" and t.text in ("static", "constexpr")
                        for t in clean)
        # name: last identifier before '=', '{', '[' or end, at angle depth 0
        name = None
        name_line = clean[0].line
        depth = 0
        for t in clean:
            if t.kind == "punct":
                if t.text == "<":
                    depth += 1
                elif t.text == ">":
                    depth = max(0, depth - 1)
                elif depth == 0 and t.text in ("=", "{", "["):
                    break
            elif t.kind == "id" and depth == 0 and t.text not in (
                    "const", "mutable", "static", "constexpr", "volatile",
                    "inline", "default", "delete", "struct", "class"):
                name = t.text
                name_line = t.line
        if name is None:
            return None
        type_tokens = []
        depth = 0
        for t in clean:
            if t.kind == "id" and t.text == name and depth == 0:
                break
            if t.kind == "punct":
                if t.text == "<":
                    depth += 1
                elif t.text == ">":
                    depth = max(0, depth - 1)
            type_tokens.append(t)
        type_text = " ".join(t.text for t in type_tokens)
        type_ids = {t.text for t in type_tokens if t.kind == "id"}
        is_pointer = any(t.kind == "punct" and t.text == "*"
                        for t in type_tokens)
        is_mutex = (not is_pointer and bool(type_ids & set(MUTEX_TYPES)))
        is_sync = (not is_pointer and bool(type_ids & set(SYNC_TYPES)))
        return Member(
            name=name,
            type_text=type_text,
            file=self.path,
            line=name_line,
            is_const=("const" in type_ids
                      or any(t.text == "const" for t in type_tokens)),
            is_static=is_static,
            is_atomic="atomic" in type_ids,
            is_mutex=is_mutex,
            is_sync=is_sync,
            guarded_by=(anns.get("GUARDED_BY") or [None])[0],
            pt_guarded_by=(anns.get("PT_GUARDED_BY") or [None])[0],
            acquired_after=anns.get("ACQUIRED_AFTER", []),
            acquired_before=anns.get("ACQUIRED_BEFORE", []),
        )

    def _record_free_decl(self, decl: List[Token],
                          class_stack: List[str]) -> None:
        clean, anns = _strip_annotations(decl)
        if not clean or not self._looks_like_function(clean):
            return
        name = self._function_name(clean)
        if name and anns.get("REQUIRES"):
            self.facts.decl_annotations.setdefault(name, []).extend(
                anns["REQUIRES"])

    @staticmethod
    def _function_name(clean: List[Token]) -> Optional[str]:
        """Name of the function a declaration declares (qualified kept)."""
        parts: List[str] = []
        for idx, t in enumerate(clean):
            if t.kind == "punct" and t.text == "(":
                k = idx - 1
                # walk back over `Class :: Name` chains
                while k >= 0:
                    if clean[k].kind == "id":
                        parts.insert(0, clean[k].text)
                        if k - 1 >= 0 and clean[k - 1].text == "::":
                            k -= 2
                            continue
                    break
                break
        return "::".join(parts) if parts else None

    # -- function bodies ---------------------------------------------------

    def _record_function(self, decl: List[Token], body_start: int,
                         body_end: int, class_stack: List[str]) -> None:
        clean, anns = _strip_annotations(decl)
        name = self._function_name(clean)
        if not name:
            return
        if "::" in name:
            qual = name
            cls = name.rsplit("::", 1)[0]
        elif class_stack:
            cls = "::".join(class_stack)
            qual = f"{cls}::{name}"
        else:
            cls = None
            qual = name
        fn = FunctionInfo(
            qualname=qual, cls=cls, file=self.path,
            line=decl[0].line if decl else self.tokens[body_start].line,
            requires=anns.get("REQUIRES", []),
        )
        self._scan_body(fn, body_start, body_end)
        self.facts.functions.append(fn)

    def _scan_body(self, fn: FunctionInfo, start: int, end: int) -> None:
        tokens = self.tokens
        pool_ranges: List[Tuple[int, int]] = []

        def in_pool(idx: int) -> bool:
            return any(lo <= idx < hi for lo, hi in pool_ranges)

        i = start
        while i < end:
            t = tokens[i]
            if t.kind == "punct":
                if t.text == "{":
                    fn.events.append(Event("open", t.line,
                                           in_pool_task=in_pool(i)))
                elif t.text == "}":
                    fn.events.append(Event("close", t.line,
                                           in_pool_task=in_pool(i)))
                i += 1
                continue
            if t.kind != "id":
                i += 1
                continue
            # Guard construction: MutexLock name(expr[, kAdoptLock])
            if t.text == GUARD_TYPE:
                j = i + 1
                if (j < end and tokens[j].kind == "id"
                        and j + 1 < end and tokens[j + 1].text == "("):
                    close = _match_paren(tokens, j + 1)
                    args = _split_args(tokens[j + 2:close - 1])
                    if args:
                        fn.events.append(Event(
                            "acquire", t.line, in_pool_task=in_pool(i),
                            lock_expr=args[0],
                            adopted=any("kAdoptLock" in a for a in args[1:]),
                        ))
                    i = close
                    continue
                i += 1
                continue
            # Pool-task entry: <recv>Submit( / ParallelFor( argument range.
            if (t.text in POOL_ENTRY_CALLS and i + 1 < end
                    and tokens[i + 1].text == "("):
                close = _match_paren(tokens, i + 1)
                pool_ranges.append((i + 2, close - 1))
                fn.events.append(Event("call", t.line, name=t.text,
                                       in_pool_task=in_pool(i)))
                i += 1
                continue
            # Ordinary call: ident(
            if (i + 1 < end and tokens[i + 1].text == "("
                    and t.text not in KEYWORDS
                    and t.text not in ANNOTATION_MACROS):
                fn.events.append(Event("call", t.line, name=t.text,
                                       in_pool_task=in_pool(i)))
                i += 1
                continue
            if t.text not in KEYWORDS:
                fn.events.append(Event("access", t.line, name=t.text,
                                       in_pool_task=in_pool(i)))
            i += 1


def load(facts: Facts, path: str, text: str) -> None:
    """Lowers one file into `facts`."""
    facts.files[path] = text
    collect_waivers(facts, path, text)
    _Parser(facts, path, tokenize(text)).parse()
